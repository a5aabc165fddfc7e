"""The ``repro work`` worker: lease, execute, stream, heartbeat, commit.

Workers are **stateless**: everything needed to execute a chunk rides in
the grant's ``spec`` — app name plus the full campaign config — and the
worker re-derives the golden run, the crash points, and the instrumented
run's snapshot store from it (:class:`ChunkExecutor`).  Determinism does
the heavy lifting: two workers that build an executor from the same spec
hold bit-identical snapshot stores, so it never matters *which* worker
classifies a trial.  Executors are cached per spec, so a worker draining
many chunks of one shard pays the instrumented run once.

Robustness posture:

* the lease's heartbeat runs on an **injectable clock** and fires every
  third of the scheduler's deadline while trials execute;
* a lost scheduler (SIGKILL before ``--resume``) shows up as a broken
  socket: the worker abandons its in-flight chunk (the reaper will
  re-issue it) and reconnects under its :class:`RetryPolicy` until the
  restarted scheduler answers or the policy gives up;
* a ``fenced`` commit means this worker was declared dead and its chunk
  re-granted — the only correct move is to drop the chunk and lease on;
* chunk execution failures feed a :class:`CircuitBreaker`: one poison
  chunk retries elsewhere, but a worker that fails every chunk it
  touches stops burning leases and exits loudly
  (:class:`~repro.errors.ServiceError`).
"""

from __future__ import annotations

import os
import socket as socket_mod
import time
from typing import Callable, Iterator

from repro.errors import ServiceError
from repro.nvct.campaign import CampaignConfig, PreparedShard, plan_shards
from repro.obs.metrics import bump
from repro.service.protocol import LineReader, encode

__all__ = ["ChunkExecutor", "run_worker"]

#: How long a worker keeps retrying a dead socket before concluding the
#: scheduler is gone for good (exit 0: a finished campaign tears the
#: socket down, and that must not look like a failure).
DEFAULT_IDLE_TIMEOUT_S = 30.0

#: Reply deadline on the request/reply ops (lease, commit).  Generous —
#: the scheduler answers in microseconds unless it is dead, and a dead
#: scheduler should be detected, not waited on forever.
REPLY_TIMEOUT_S = 60.0


class ChunkExecutor(PreparedShard):
    """The socket-worker executor: one shard's spec made executable.

    :meth:`from_spec` replays the spec through the engine's own pipeline
    (:func:`~repro.nvct.campaign.plan_shards` →
    :meth:`PreparedShard.record`), so :meth:`run` yields records
    bit-identical to the serial campaign's, trial index by trial index.
    """

    trial_timeout: float | None = None

    @classmethod
    def from_spec(cls, spec: dict) -> "ChunkExecutor":
        from repro.apps.registry import get_factory
        from repro.harness.cache import campaign_key

        try:
            factory = get_factory(str(spec["app"]))
        except KeyError as exc:
            raise ServiceError(f"scheduler leased an unknown app: {exc}") from exc
        try:
            cfg = CampaignConfig.from_doc(spec["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed campaign spec from scheduler: {exc!r}") from exc
        key = campaign_key(factory, cfg)
        if key != spec.get("key"):
            # Version skew: this worker's code would sample or classify
            # differently than the scheduler's. Refusing here is what
            # keeps "bit-identical" an invariant rather than a hope.
            raise ServiceError(
                f"campaign key mismatch for {factory.name!r}: scheduler has "
                f"{str(spec.get('key'))[:12]}…, this worker derives "
                f"{key[:12]}… — mixed package versions? refusing the lease"
            )
        # The shipped cfg is one shard as it stands (no cluster cut).
        (plan,), _ = plan_shards(factory, cfg)
        executor = cls.record(factory, plan)
        executor.trial_timeout = spec.get("trial_timeout")
        return executor

    def run(self, indices: list[int]) -> Iterator[tuple[int, dict]]:
        """Classify the chunk's trials, yielding ``(index, record_doc)``."""
        from repro.nvct.serialize import record_to_dict

        for i, rec in self.classify(indices, self.trial_timeout):
            yield i, record_to_dict(rec)


class _Connection:
    """One blocking connection to the scheduler, with line framing."""

    def __init__(self, path: str, timeout: float = REPLY_TIMEOUT_S):
        self.sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.reader = LineReader()
        self.pending: list[dict] = []

    def send(self, doc: dict) -> None:
        self.sock.sendall(encode(doc))

    def recv(self) -> dict:
        """Next decoded message; raises ``OSError`` on EOF/timeout."""
        while True:
            if self.pending:
                return self.pending.pop(0)
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionResetError("scheduler closed the connection")
            self.pending.extend(self.reader.feed(data))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _connect(
    socket_path: str,
    retry,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    idle_timeout_s: float,
) -> _Connection | None:
    """Connect with retries; ``None`` once the scheduler stays gone.

    Covers the scheduler-restart window: ``repro serve --resume`` takes
    seconds to rebuild its queue, during which connects fail.  Backoff
    delays come from the (seeded, deterministic) retry policy; the idle
    timeout bounds the total wait.
    """
    start = clock()
    attempt = 0
    while True:
        try:
            return _Connection(socket_path)
        except OSError:
            if clock() - start >= idle_timeout_s:
                return None
            sleep(max(retry.delay("connect", min(attempt, 8)), 0.05))
            attempt += 1
            bump("service.worker_reconnects", unit="attempts")


def run_worker(
    socket_path: str | os.PathLike,
    *,
    name: str | None = None,
    idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
    retry=None,
    breaker=None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    executor_factory: Callable[[dict], ChunkExecutor] = ChunkExecutor.from_spec,
) -> int:
    """Drain leases from the scheduler at ``socket_path`` until ``done``.

    Returns the number of chunks this worker committed.  Raises
    :class:`ServiceError` when the circuit breaker concludes this worker
    cannot execute chunks at all; a merely *finished* (or vanished)
    scheduler is a clean return.
    """
    from repro.harness.resilience import WORKER_RETRY, new_breaker
    from repro.obs import maybe_span, registry

    path = str(socket_path)
    worker = name or f"worker-{os.getpid()}"
    retry = retry or WORKER_RETRY
    breaker = breaker or new_breaker()
    reg = registry()
    tracer = reg.tracer if reg else None
    executors: dict[str, ChunkExecutor] = {}
    committed = 0
    conn: _Connection | None = None
    try:
        while True:
            if conn is None:
                conn = _connect(path, retry, clock, sleep, idle_timeout_s)
                if conn is None:
                    return committed  # scheduler gone for good: campaign over
            try:
                conn.send({"op": "lease", "worker": worker})
                reply = conn.recv()
            except OSError:
                conn.close()
                conn = None
                continue
            op = reply.get("op")
            if op == "done":
                return committed
            if op == "wait":
                sleep(0.2)
                continue
            if op != "grant":
                continue
            if not breaker.allow():
                raise ServiceError(
                    f"worker {worker}: circuit breaker open after repeated "
                    "chunk failures; giving up"
                )
            try:
                with maybe_span(
                    tracer, "service.chunk",
                    chunk=reply.get("chunk"), worker=worker,
                ):
                    ok = _execute_chunk(
                        conn, reply, executors, executor_factory, clock,
                    )
            except ServiceError:
                raise
            except OSError:
                # Mid-chunk connection loss: the scheduler died (or we
                # were fenced out under it). Abandon the chunk — the
                # reaper re-issues it — and reconnect.
                conn.close()
                conn = None
                continue
            except Exception:
                if breaker.record_failure():
                    raise ServiceError(
                        f"worker {worker}: chunk execution keeps failing "
                        "(circuit breaker tripped); giving up"
                    )
                continue
            breaker.record_success()
            if ok:
                committed += 1
    finally:
        if conn is not None:
            conn.close()


def _execute_chunk(
    conn: _Connection,
    grant: dict,
    executors: dict[str, ChunkExecutor],
    executor_factory: Callable[[dict], ChunkExecutor],
    clock: Callable[[], float],
) -> bool:
    """Run one granted chunk end to end; ``True`` iff the commit was acked."""
    from repro.harness.chaos import injector as chaos_injector

    spec = grant["spec"]
    chunk_id = int(grant["chunk"])
    token = int(grant["token"])
    indices = [int(i) for i in grant["indices"]]
    deadline_s = float(grant.get("deadline_s", 30.0))
    cache_key = f"{spec.get('key')}#{grant.get('node', 0)}"
    if cache_key not in executors:
        executors[cache_key] = executor_factory(spec)
    executor = executors[cache_key]

    heartbeat_every = max(deadline_s / 3.0, 1e-6)
    last_beat = clock()
    for index, record_doc in executor.run(indices):
        ch = chaos_injector()
        if ch is not None:
            # The service.worker death site: a worker dying between two
            # trials of a chunk, detected only by its missed heartbeats.
            ch.maybe_kill("service.worker")
        _send_unreliable(
            conn,
            {"op": "record", "chunk": chunk_id, "token": token,
             "index": index, "record": record_doc},
            site="service.record",
        )
        if clock() - last_beat >= heartbeat_every:
            if ch is not None and ch.delays_heartbeat("service.heartbeat"):
                # Sit this one out: to the scheduler it is a heartbeat
                # delayed past the deadline, which may expire the lease
                # and fence our commit — exactly the zombie drill.
                pass
            else:
                _send_unreliable(
                    conn,
                    {"op": "heartbeat", "chunk": chunk_id, "token": token},
                    site="service.heartbeat",
                )
            last_beat = clock()

    # Commit, resending any records the scheduler never saw (msg_drop).
    while True:
        conn.send({"op": "commit", "chunk": chunk_id, "token": token})
        reply = conn.recv()
        op = reply.get("op")
        if op == "ack":
            return True
        if op == "fenced":
            bump("service.worker_fenced", unit="chunks")
            return False
        if op == "retry":
            missing = {int(i) for i in reply.get("missing", [])}
            for index, record_doc in executor.run(sorted(missing)):
                conn.send(
                    {"op": "record", "chunk": chunk_id, "token": token,
                     "index": index, "record": record_doc}
                )
            continue
        raise ServiceError(f"unexpected commit reply from scheduler: {reply!r}")


def _send_unreliable(conn: _Connection, doc: dict, site: str) -> None:
    """Send a fire-and-forget message through the chaos gate.

    ``msg_drop`` swallows the message (the completeness check or the
    reaper must recover); ``msg_duplicate`` sends it twice (the ledger's
    dedupe must absorb it).  Both decisions are pure in
    ``(seed, site, kind, call#)``.
    """
    from repro.harness.chaos import injector as chaos_injector

    ch = chaos_injector()
    if ch is not None and ch.drops(site):
        return
    conn.send(doc)
    if ch is not None and ch.duplicates(site):
        conn.send(doc)
