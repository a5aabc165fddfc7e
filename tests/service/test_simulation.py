"""Deterministic service simulation: scheduler, workers and journals in one
process, with a seeded fault plan at every message boundary.

Everything that decides correctness is production code: the real
:class:`~repro.service.CampaignScheduler` over real journals under
``tmp_path``, and real :func:`~repro.service.run_worker` loops (so the
real ``_execute_chunk`` and :class:`~repro.service.ChunkExecutor`).  Only
the transport, the clock and the interleaving are simulated:

* :class:`SimConnection` stands in for ``repro.service.worker._Connection``
  and passes every message, through the real wire format, to
  ``scheduler.handle(msg, now)`` on the simulated clock;
* each worker runs on its own thread, but only the holder of the baton
  runs: a worker hands it back to the conductor at every send, receive and
  sleep, so one seeded conductor decides what happens at each boundary;
* ``record`` and ``heartbeat`` messages are dropped, duplicated, or held
  and delivered later out of order;
* the conductor jumps the clock past the lease deadline and reaps (each
  holder becomes a zombie and another worker re-leases its chunk), stops
  a worker mid-chunk (a replacement joins), kills the scheduler by
  dropping the object and restarts it with ``resume=True`` on the same
  journals, and feeds the scheduler malformed messages.

The oracle checks four things on every run: fencing tokens strictly
increase across all grants; every non-duplicate ``ack`` carries the
newest token granted for its chunk; the raw journal lines hold each
trial index exactly once; and the assembled ``--save`` bytes equal the
serial run's.  A failure names its seed and step; the same seed replays
the same run.
"""

import random
import threading
import warnings
from collections import Counter

import pytest

import repro.service.worker as worker_mod
from repro.apps.registry import get_factory
from repro.cluster import run_cluster_campaign
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.journal import scan_journal
from repro.nvct.serialize import save_campaign, save_cluster_result
from repro.service import CampaignScheduler, run_worker
from repro.service.protocol import LineReader, encode

FACTORY = get_factory("EP")
CONFIGS = {
    "single-node": CampaignConfig(n_tests=12, seed=3),
    "nodes2": CampaignConfig(n_tests=10, seed=3, nodes=2, correlation=0.4),
}
SEEDS = {"single-node": range(6), "nodes2": range(2)}

CHUNK_SIZE = 3
DEADLINE_S = 10.0
TICK_S = 0.5  # simulated seconds per conductor step
N_WORKERS = 2
MAX_WORKERS = N_WORKERS + 3  # stopped workers are replaced up to this many
MAX_SCHEDULER_KILLS = 2
MAX_STEPS = 20_000
BOUNDARY_TIMEOUT_S = 120.0  # wall-clock bound on one worker step

# Fate of each fire-and-forget message (the rest are delivered once).
DROP, HOLD, DUPLICATE = 0.1, 0.15, 0.1
# Conductor action odds per step (the rest step one worker).
KILL_SCHEDULER, EXPIRE, STOP_WORKER, RELEASE_HELD, MALFORMED = 0.01, 0.03, 0.02, 0.15, 0.01
RESTART = 0.3  # per step while the scheduler is down (connects are refused)

MALFORMED_MESSAGES = [
    {"op": "heartbeat", "chunk": "x", "token": 1},
    {"op": "commit", "chunk": None, "token": 1},
    {"op": "record", "chunk": [0]},
    {"op": "commit", "chunk": 0, "token": "abc"},
    {"op": "record", "chunk": 0, "token": 1, "index": "x", "record": {}},
    {"op": "heartbeat", "chunk": float("inf"), "token": 1},
    {"op": "shutdown"},
]


class Stopped(BaseException):
    """Unwinds a stopped worker's thread.  Not an ``Exception``, so
    ``run_worker`` cannot mistake it for a failed chunk."""


def wire(doc: dict) -> dict:
    """``doc`` after the real encode/decode round trip."""
    (out,) = LineReader().feed(encode(doc))
    return out


class SimWorker:
    """One ``run_worker`` loop on a thread that runs only while it holds
    the baton."""

    def __init__(self, sim: "Sim", name: str):
        self.sim, self.name = sim, name
        self.go = threading.Semaphore(0)
        self.stopped = self.finished = False
        self.error: Exception | None = None
        threading.Thread(target=self._main, name=name, daemon=True).start()

    def _main(self) -> None:
        self.go.acquire()
        try:
            if not self.stopped:
                run_worker(
                    self.name, name=self.name, idle_timeout_s=1e9,
                    clock=lambda: self.sim.now, sleep=lambda _s: self.pause(),
                )
        except Stopped:
            pass
        except Exception as exc:  # reported by the conductor, not lost on the thread
            self.error = exc
        finally:
            self.finished = True
            self.sim.baton.release()

    def pause(self) -> None:
        """A message boundary: hand the baton to the conductor, wait for it back."""
        self.sim.baton.release()
        self.go.acquire()
        if self.stopped:
            raise Stopped

    def step(self) -> None:
        """Conductor side: run this worker to its next boundary."""
        self.go.release()
        assert self.sim.baton.acquire(timeout=BOUNDARY_TIMEOUT_S), (
            f"seed {self.sim.seed}: {self.name} never reached its next boundary"
        )


class SimConnection:
    """In-memory stand-in for ``repro.service.worker._Connection``.  A
    connection belongs to one scheduler incarnation; after a restart it
    behaves like a socket whose peer died."""

    def __init__(self, sim: "Sim", worker: SimWorker):
        self.sim, self.worker = sim, worker
        self.incarnation = sim.incarnation
        self.inbox: list[dict] = []

    def _check(self) -> None:
        if self.sim.scheduler is None or self.incarnation != self.sim.incarnation:
            raise ConnectionResetError("scheduler restarted")

    def send(self, doc: dict) -> None:
        self.worker.pause()
        self._check()
        self.sim.transmit(wire(doc), self)

    def recv(self) -> dict:
        self.worker.pause()
        self._check()
        return self.inbox.pop(0)

    def close(self) -> None:
        pass


class Sim:
    """The conductor: owns the clock, the scheduler, the workers, the fault
    plan and the oracle's observations."""

    def __init__(self, seed: int, cfg: CampaignConfig, journal):
        self.seed, self.cfg, self.journal = seed, cfg, journal
        self.rng = random.Random(seed)
        self.now = 0.0
        self.step = 0
        self.incarnation = 0
        self.scheduler_kills = 0
        self.scheduler: CampaignScheduler | None = self._start(resume=False)
        self.held: list[dict] = []
        # Oracle state, built from what crossed the wire.
        self.violations: list[str] = []
        self.last_token = 0
        self.newest_token: dict[int, int] = {}
        self.acked: set[int] = set()
        self.baton = threading.Semaphore(0)
        self.workers: dict[str, SimWorker] = {}
        for _ in range(N_WORKERS):
            self._spawn()

    def _start(self, resume: bool) -> CampaignScheduler:
        scheduler = CampaignScheduler(
            FACTORY, self.cfg, journal=self.journal, chunk_size=CHUNK_SIZE,
            deadline_s=DEADLINE_S, resume=resume,
        )
        scheduler.prepare()
        return scheduler

    def _spawn(self) -> None:
        name = f"w{len(self.workers)}"
        self.workers[name] = SimWorker(self, name)

    def connect(self, path: str) -> SimConnection:
        """The patched ``_Connection`` constructor (``path`` names the worker)."""
        if self.scheduler is None:
            raise ConnectionRefusedError("scheduler is down")
        return SimConnection(self, self.workers[path])

    # -- the network -----------------------------------------------------------

    def transmit(self, msg: dict, conn: SimConnection) -> None:
        if msg["op"] in ("record", "heartbeat"):
            fate = self.rng.random()
            if fate < DROP:
                return
            if fate < DROP + HOLD:
                self.held.append(msg)
                return
            if fate < DROP + HOLD + DUPLICATE:
                self.deliver(msg)
        conn.inbox.extend(self.deliver(msg))

    def deliver(self, msg: dict) -> list[dict]:
        assert self.scheduler is not None
        table = self.scheduler.table
        was_committed = msg["op"] == "commit" and table.states[msg["chunk"]].status == "committed"
        try:
            replies = [wire(r) for r in self.scheduler.handle(msg, self.now)]
        except Exception as exc:  # the worker would absorb it; the conductor must not
            self.violate(f"scheduler raised {exc!r} on {msg}")
            raise
        for reply in replies:
            if reply["op"] == "grant":
                if reply["token"] <= self.last_token:
                    self.violate(f"grant token {reply['token']} after {self.last_token}")
                self.last_token = reply["token"]
                self.newest_token[reply["chunk"]] = reply["token"]
            elif reply["op"] == "ack" and not was_committed:
                chunk = reply["chunk"]
                if msg["token"] != self.newest_token.get(chunk):
                    self.violate(
                        f"chunk {chunk} acked under token {msg['token']}, "
                        f"newest grant is {self.newest_token.get(chunk)}"
                    )
                if chunk in self.acked:
                    self.violate(f"chunk {chunk} committed twice")
                self.acked.add(chunk)
        return replies

    def violate(self, what: str) -> None:
        self.violations.append(f"step {self.step}: {what}")

    # -- the fault plan --------------------------------------------------------

    def act(self) -> None:
        if self.scheduler is not None:
            self.scheduler.reap(self.now)
        live = [w for w in self.workers.values() if not w.finished]
        u = self.rng.random()
        if u < KILL_SCHEDULER:
            if self.scheduler is not None and self.scheduler_kills < MAX_SCHEDULER_KILLS:
                self.scheduler_kills += 1
                with warnings.catch_warnings():
                    # SIGKILL: the journals' files close with the object,
                    # unflushed by any close() of ours.
                    warnings.simplefilter("ignore", ResourceWarning)
                    self.scheduler = None
            return
        u -= KILL_SCHEDULER
        if u < EXPIRE:
            self.now += DEADLINE_S  # every holder misses its deadline
            return
        u -= EXPIRE
        if u < STOP_WORKER:
            if len(self.workers) < MAX_WORKERS:
                victim = self.rng.choice(live)
                victim.stopped = True
                victim.step()
                self._spawn()
            return
        u -= STOP_WORKER
        if u < RELEASE_HELD:
            if self.held and self.scheduler is not None:
                self.deliver(self.held.pop(self.rng.randrange(len(self.held))))
            return
        u -= RELEASE_HELD
        if u < MALFORMED:
            if self.scheduler is not None:
                msg = wire(self.rng.choice(MALFORMED_MESSAGES))
                assert self.scheduler.handle(msg, self.now) == []
            return
        self.rng.choice(live).step()

    def run(self) -> None:
        try:
            while any(not w.finished for w in self.workers.values()):
                self.step += 1
                assert self.step <= MAX_STEPS, f"seed {self.seed}: no progress"
                self.now += TICK_S
                if self.scheduler is None and self.rng.random() < RESTART:
                    self.incarnation += 1
                    self.scheduler = self._start(resume=True)
                self.act()
                assert not self.violations, f"seed {self.seed}: {self.violations}"
            for w in self.workers.values():
                assert w.error is None, f"seed {self.seed}: {w.name} raised {w.error!r}"
        finally:
            for w in self.workers.values():
                if not w.finished:
                    w.stopped = True
                    w.step()


@pytest.fixture(scope="module")
def serial_saves(tmp_path_factory):
    """Config name → the ``--save`` bytes of the serial run."""
    out = {}
    for name, cfg in CONFIGS.items():
        path = tmp_path_factory.mktemp("serial") / "serial.json"
        if cfg.clustered:
            save_cluster_result(run_cluster_campaign(FACTORY, cfg), path)
        else:
            save_campaign(run_campaign(FACTORY, cfg), path)
        out[name] = path.read_bytes()
    return out


@pytest.mark.parametrize(
    "config,seed", [(name, seed) for name, seeds in SEEDS.items() for seed in seeds]
)
def test_service_is_exactly_once_and_bit_identical_under_the_fault_plan(
    tmp_path, monkeypatch, serial_saves, config, seed
):
    cfg = CONFIGS[config]
    sim = Sim(seed, cfg, tmp_path / "j.jsonl")
    monkeypatch.setattr(worker_mod, "_Connection", sim.connect)
    sim.run()

    scheduler = sim.scheduler
    assert scheduler is not None and scheduler.done(), f"seed {seed}"
    for shard in scheduler.shards.values():
        _, lines, _ = scan_journal(shard.prepared.plan.journal.read_bytes())
        counts = Counter(doc["index"] for doc, _ in lines if doc.get("kind") == "trial")
        assert counts == Counter(range(shard.n_snaps)), (
            f"seed {seed}: journal is not exactly-once: {sorted(counts.items())}"
        )
    scheduler.close()
    save = save_cluster_result if cfg.clustered else save_campaign
    path = save(scheduler.result(), tmp_path / "served.json")
    assert path.read_bytes() == serial_saves[config], f"seed {seed}"
