"""The ``repro work`` worker: lease, execute, stream, heartbeat, commit.

Workers are **stateless**: everything needed to execute a chunk rides in
the grant's ``spec`` — app name, the shard's campaign document, and the
golden store the scheduler recorded once and published for that shard
(``store``, an absolute path, with the golden run's
``golden_iterations``).  The worker maps that file read-only and
classifies from it (:class:`ChunkExecutor`); it never profiles or
records, so it must share a filesystem with the scheduler (the
Unix-socket transport already puts both on one host).  Every worker
reads the same bytes, so it never matters *which* worker classifies a
trial.  Executors are cached per spec, so a worker draining many chunks
of one shard maps and verifies the store once.

Robustness posture:

* the lease's heartbeat runs on an **injectable clock** and fires every
  third of the scheduler's deadline while trials execute;
* a lost scheduler (SIGKILL before ``--resume``) shows up as a broken
  socket: the worker abandons its in-flight chunk (the reaper will
  re-issue it) and reconnects with ``WORKER_RETRY`` backoff until the
  restarted scheduler answers or the idle timeout runs out;
* a ``fenced`` commit means this worker was declared dead and its chunk
  re-granted — the only correct move is to drop the chunk and lease on;
* chunk execution failures feed a :class:`CircuitBreaker`: one poison
  chunk retries elsewhere, but a worker that fails every chunk it
  touches stops burning leases and exits loudly
  (:class:`~repro.errors.ServiceError`).

This module is the one place that decides retry and breaker policy:
``WORKER_RETRY`` and :func:`new_breaker` are the only presets, and
nothing else constructs a :class:`RetryPolicy` or a breaker.
"""

from __future__ import annotations

import os
import socket as socket_mod
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import ServiceError
from repro.nvct.campaign import CampaignConfig
from repro.obs import registry as obs_registry
from repro.obs.metrics import bump
from repro.service.protocol import LineReader, encode
from repro.util.rng import derive_seed

if TYPE_CHECKING:
    from repro.apps.base import AppFactory
    from repro.memsim.golden import GoldenStore

__all__ = [
    "ChunkExecutor",
    "CircuitBreaker",
    "RetryPolicy",
    "WORKER_RETRY",
    "new_breaker",
    "run_worker",
]

#: How long a worker keeps retrying a dead socket before concluding the
#: scheduler is gone for good (exit 0: a finished campaign tears the
#: socket down, and that must not look like a failure).
DEFAULT_IDLE_TIMEOUT_S = 30.0

#: Reply deadline on the request/reply ops (lease, commit).  Generous —
#: the scheduler answers in microseconds unless it is dead, and a dead
#: scheduler should be detected, not waited on forever.
REPLY_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter.

    The policy only decides how long to back off; the caller owns its
    retry loop and its bound (a worker's is the idle timeout).
    """

    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based) of operation ``key``.

        Deterministic: ``min(max_delay, base_delay·2^attempt)`` scaled by
        a seeded jitter factor in ``[0.5, 1.0]`` — jitter decorrelates
        concurrent retriers, and a fixed seed replays the schedule exactly.
        """
        cap = min(self.max_delay, self.base_delay * (2.0**attempt))
        u = (derive_seed(self.seed, "retry", key, attempt) % 2**53) / 2**53
        return cap * (0.5 + 0.5 * u)


class CircuitBreaker:
    """Consecutive-failure trip wire.

    ``record_failure`` returns ``True`` the moment the breaker opens;
    once open it stays open (its owner, a ``repro work`` worker, exits
    and leaves its chunks to other workers, so there is nothing to probe
    half-open for).  A trip bumps ``resilience.breaker_trips`` when
    telemetry is on.
    """

    def __init__(self, threshold: int = 3):
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.consecutive_failures = 0
        self.tripped = False

    def allow(self) -> bool:
        return not self.tripped

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        self.consecutive_failures += 1
        if not self.tripped and self.consecutive_failures >= self.threshold:
            self.tripped = True
            if (reg := obs_registry()) is not None:
                reg.counter("resilience.breaker_trips", unit="trips").inc()
        return self.tripped


#: Reconnect backoff of a worker whose scheduler is restarting.
WORKER_RETRY = RetryPolicy(base_delay=0.1, max_delay=2.0)


def new_breaker() -> CircuitBreaker:
    """A fresh breaker (one per ``repro work`` worker)."""
    return CircuitBreaker(threshold=3)


@dataclass
class ChunkExecutor:
    """The socket-worker executor: one shard's published golden store.

    :meth:`from_spec` maps the store the scheduler published for the
    lease's shard; :meth:`run` drives the engine's one trial loop
    (:func:`~repro.nvct.campaign._trial_loop`, which the inline path and
    the ``--jobs`` pool run too) over it, so its records are
    bit-identical to the serial campaign's, trial index by trial index.
    """

    factory: "AppFactory"
    store: "GoldenStore"
    golden_iterations: int
    cfg: CampaignConfig
    trial_timeout: float | None = None

    @classmethod
    def from_spec(cls, spec: dict) -> "ChunkExecutor":
        """Check a grant's spec against this worker's code, then map its store.

        A malformed spec or a campaign-key mismatch raises
        :class:`ServiceError`.  A store file that is missing, unreadable,
        truncated, corrupt, or published for another campaign or node
        raises :class:`~repro.errors.SnapshotCorruptError` — never
        ``OSError``, which :func:`run_worker` would take for a lost
        connection — so the worker's circuit breaker counts it like any
        failed chunk; there is no fallback to recording.
        """
        from repro.apps.registry import get_factory
        from repro.harness.cache import campaign_key
        from repro.memsim.golden import GoldenStore

        try:
            factory = get_factory(str(spec["app"]))
        except KeyError as exc:
            raise ServiceError(f"scheduler leased an unknown app: {exc}") from exc
        try:
            cfg = CampaignConfig.from_doc(spec["config"])
            store_path = str(spec["store"])
            golden_iterations = int(spec["golden_iterations"])
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
        store = GoldenStore.open(store_path, key=key, node=cfg.node)
        return cls(factory, store, golden_iterations, cfg, spec.get("trial_timeout"))

    def run(self, indices: list[int]) -> Iterator[tuple[int, dict]]:
        """Classify the chunk's trials, yielding ``(index, record_doc)``."""
        from repro.nvct.campaign import _trial_loop
        from repro.nvct.serialize import record_to_dict

        records = _trial_loop(
            self.factory, self.store, self.golden_iterations, self.cfg, indices,
            self.trial_timeout,
        )
        for i, rec in zip(indices, records):
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
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    idle_timeout_s: float,
) -> _Connection | None:
    """Connect with retries; ``None`` once the scheduler stays gone.

    Covers the scheduler-restart window: ``repro serve --resume`` takes
    seconds to rebuild its queue, during which connects fail.  Backoff
    delays come from the (seeded, deterministic) ``WORKER_RETRY`` policy;
    the idle timeout bounds the total wait.
    """
    start = clock()
    attempt = 0
    while True:
        try:
            return _Connection(socket_path)
        except OSError:
            if clock() - start >= idle_timeout_s:
                return None
            sleep(max(WORKER_RETRY.delay("connect", min(attempt, 8)), 0.05))
            attempt += 1
            bump("service.worker_reconnects", unit="attempts")


def run_worker(
    socket_path: str | os.PathLike,
    *,
    name: str | None = None,
    idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
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
    from repro.obs import maybe_span, registry

    path = str(socket_path)
    worker = name or f"worker-{os.getpid()}"
    breaker = new_breaker()
    reg = registry()
    tracer = reg.tracer if reg else None
    executors: dict[str, ChunkExecutor] = {}
    committed = 0
    conn: _Connection | None = None
    try:
        while True:
            if conn is None:
                conn = _connect(path, clock, sleep, idle_timeout_s)
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
        conn.send(
            {"op": "record", "chunk": chunk_id, "token": token,
             "index": index, "record": record_doc}
        )
        if clock() - last_beat >= heartbeat_every:
            conn.send({"op": "heartbeat", "chunk": chunk_id, "token": token})
            last_beat = clock()

    # Commit, resending any records the scheduler never saw.
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

