"""Parallel campaign execution: fan classification out over worker processes.

A campaign's cost splits into one instrumented execution (inherently
serial: the access counter is a single global clock) and ``n_tests``
restart-and-classify runs that are embarrassingly parallel — each test
restarts a fresh plain-mode application from one snapshot and never
touches shared state.  :func:`classify_snapshots` exploits that shape:
it fans the classification phase of one campaign out over ``jobs``
worker processes.  Crash images never cross the process boundary: each
worker holds the campaign's golden store (inherited from the parent
under ``fork``, pickled once per worker otherwise), a task carries only
a deterministic, crash-point-ordered chunk of *trial indices*, and the
worker replays those images itself as borrowed views.  Per-chunk
records are merged back in chunk order, so a parallel campaign is
*bit-identical* to a serial one under the same seed.

Workers are plain ``multiprocessing.Pool`` processes with
``maxtasksperchild`` recycling (long campaigns keep worker memory flat).
Every pool-level failure — a worker crash, an unpicklable factory or
store, a chunk exceeding ``chunk_timeout`` — degrades gracefully: the
remaining work is computed serially in the parent, so parallelism is
strictly an optimization and never changes results or raises new errors.

``REPRO_JOBS`` (or ``--jobs`` on the CLI) selects the worker count;
``0`` means one worker per CPU, unset/``1`` means serial.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import signal
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.obs import registry

__all__ = [
    "resolve_jobs",
    "chunk_indices",
    "classify_snapshots",
    "classify_pooled",
    "DEFAULT_CHUNK_TIMEOUT",
]

if TYPE_CHECKING:  # avoid import cycles at runtime
    from repro.apps.base import AppFactory
    from repro.memsim.golden import GoldenSnapshotSource, GoldenStore
    from repro.nvct.campaign import (
        CampaignConfig,
        CrashTestRecord,
        PreparedShard,
    )

#: Seconds one chunk may take before the engine abandons the pool and
#: falls back to serial.
DEFAULT_CHUNK_TIMEOUT = 600.0

#: Tasks a worker serves before being replaced (bounds leaked memory).
MAX_TASKS_PER_CHILD = 32


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else serial.

    ``0`` (argument or environment) means "all CPUs"; anything below
    zero or unparsable degrades to serial.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            return 1
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


def chunk_indices(n_items: int, jobs: int) -> list[tuple[int, int]]:
    """Deterministic contiguous ``[lo, hi)`` chunks covering ``n_items``.

    Chunks are sized so each worker gets ~4 of them (cheap dynamic load
    balancing) while staying purely a function of ``(n_items, jobs)`` —
    the merge order, and therefore the record order, never depends on
    scheduling.
    """
    if n_items <= 0:
        return []
    chunk = max(1, math.ceil(n_items / (jobs * 4)))
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork (cheap: workers inherit the warmed golden-run cache and the
    # golden store without a copy) when available; the platform default
    # otherwise, which pickles both once per worker.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# -- classification fan-out ---------------------------------------------------


#: This worker's task body, installed once by the pool initializer.
_worker_loop: "Callable[[Sequence[int]], Iterator[CrashTestRecord]] | None" = None


def _classify_worker_init(
    factory: "AppFactory",
    store: "GoldenStore",
    golden_iterations: int,
    cfg: "CampaignConfig",
) -> None:
    global _worker_loop
    from repro.nvct.campaign import _trial_loop

    # Forked workers inherit the CLI's SIGTERM -> KeyboardInterrupt
    # handler, and Pool.terminate() SIGTERMs them: a worker must simply
    # die there, not print a KeyboardInterrupt traceback.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _worker_loop = functools.partial(_trial_loop, factory, store, golden_iterations, cfg)


def _classify_chunk(task: tuple[int, list[int]]) -> tuple[int, list["CrashTestRecord"]]:
    from repro.harness.chaos import injector as chaos_injector

    assert _worker_loop is not None
    chunk_id, chunk = task
    if (ch := chaos_injector()) is not None:
        ch.maybe_kill("parallel.worker")
    return chunk_id, list(_worker_loop(chunk))


def classify_snapshots(
    factory: "AppFactory",
    source: "GoldenSnapshotSource",
    golden_iterations: int,
    cfg: "CampaignConfig",
    jobs: int | None = None,
    chunk_timeout: float = DEFAULT_CHUNK_TIMEOUT,
    record_sink: "Callable[[int, CrashTestRecord], None] | None" = None,
) -> list["CrashTestRecord"]:
    """Classify every trial of ``source``, fanning out over ``jobs`` processes.

    ``source`` is a :class:`~repro.memsim.golden.GoldenSnapshotSource`: a
    golden store plus the ascending (possibly gapped) crash-image indices
    to classify.  The pool initializer hands every worker the factory,
    the store, the golden iteration count and the config once; a task is
    ``(chunk_id, trial indices)`` for one :func:`chunk_indices` cut, and
    the worker replays those images from its own store as borrowed views.
    No crash image is copied, packed or shipped per task.

    Bit-identical to the inline ``[_classify(...) for snap in
    store.snapshots(indices)]`` under any job count: classification is
    pure (plain-mode restart, no shared state, no RNG) and records are
    merged in crash-point order.

    Failure handling is layered: a failed or timed-out chunk is
    resubmitted under ``POOL_CHUNK_RETRY`` (exponential backoff, seeded
    jitter); a :class:`~repro.harness.resilience.CircuitBreaker` trips after
    repeated consecutive failures and degrades the rest of the fan-out to
    serial execution in the parent; any chunk still missing at the end is
    classified in-process.  Parallelism stays strictly an optimization —
    it never changes results or raises new errors.

    ``record_sink(position, record)`` is invoked for every record as soon
    as its chunk lands (journaling hook); positions index
    ``source.indices``.  A run of equal images split across chunks
    restarts once per chunk (:func:`~repro.nvct.campaign._trial_loop`).
    """
    import time

    from repro.harness.chaos import WORKER_DEATH_TIMEOUT
    from repro.harness.chaos import injector as chaos_injector
    from repro.harness.resilience import POOL_CHUNK_RETRY, new_breaker
    from repro.nvct.campaign import _trial_loop

    jobs = resolve_jobs(jobs)
    store, indices = source.store, source.indices

    def classify_serial(lo: int, hi: int) -> list:
        out = []
        for rec in _trial_loop(factory, store, golden_iterations, cfg, indices[lo:hi]):
            if record_sink is not None:
                record_sink(lo + len(out), rec)
            out.append(rec)
        return out

    if jobs <= 1 or len(indices) < 2:
        return classify_serial(0, len(indices))

    breaker = new_breaker()
    if (ch := chaos_injector()) is not None and "worker_death" in ch.kinds:
        # A killed worker never posts its result; the chunk timeout is the
        # detection latency, so clamp it to keep fault-injection runs fast.
        chunk_timeout = min(chunk_timeout, WORKER_DEATH_TIMEOUT)

    factory.golden()  # warm before fork so workers inherit it
    chunks = chunk_indices(len(indices), jobs)
    tasks = [(ci, indices[lo:hi]) for ci, (lo, hi) in enumerate(chunks)]
    done: dict[int, list] = {}
    retries = 0
    try:
        with _pool_context().Pool(
            processes=min(jobs, len(chunks)),
            initializer=_classify_worker_init,
            initargs=(factory, store, golden_iterations, cfg),
            maxtasksperchild=MAX_TASKS_PER_CHILD,
        ) as pool:
            pending = {ci: pool.apply_async(_classify_chunk, (task,)) for ci, task in enumerate(tasks)}
            for ci in range(len(chunks)):
                if not breaker.allow():
                    break  # degraded to serial: the parent finishes the rest
                attempt = 0
                while True:
                    try:
                        index, records = pending[ci].get(timeout=chunk_timeout)
                    except Exception:
                        tripped = breaker.record_failure()
                        if tripped or attempt >= POOL_CHUNK_RETRY.max_retries:
                            break
                        retries += 1
                        if (reg := registry()) is not None:
                            reg.counter("resilience.retries", unit="retries").inc()
                        time.sleep(POOL_CHUNK_RETRY.delay(f"chunk-{ci}", attempt))
                        attempt += 1
                        pending[ci] = pool.apply_async(_classify_chunk, (tasks[ci],))
                        continue
                    done[index] = records
                    breaker.record_success()
                    if record_sink is not None:
                        lo, _hi = chunks[index]
                        for offset, rec in enumerate(records):
                            record_sink(lo + offset, rec)
                    break
    except Exception:
        pass  # pool-level failure: serial recovery below fills the gaps
    out: list = []
    for ci, (lo, hi) in enumerate(chunks):
        if ci in done:
            out.extend(done[ci])
        else:
            out.extend(classify_serial(lo, hi))
    if (reg := registry()) is not None:
        # Pool utilisation: how much of the fan-out actually ran in
        # workers vs. fell back to serial recovery in the parent.
        reg.gauge("parallel.jobs", unit="workers").set(jobs)
        reg.counter("parallel.chunks_total", unit="chunks").inc(len(chunks))
        reg.counter("parallel.chunks_parallel", unit="chunks").inc(len(done))
        reg.counter("parallel.chunks_serial_fallback", unit="chunks").inc(
            len(chunks) - len(done)
        )
        reg.counter("parallel.chunk_retries", unit="retries").inc(retries)
        if chunks:
            reg.gauge("parallel.pool_utilization", unit="ratio").set(
                len(done) / len(chunks)
            )
    return out


def classify_pooled(
    shard: "PreparedShard",
    indices: Sequence[int],
    sink: "Callable[[int, CrashTestRecord], object]",
    jobs: int,
    chunk_timeout: float | None = None,
) -> None:
    """The process-pool executor over a prepared shard: classify trials
    ``indices`` through :func:`classify_snapshots` (workers replay the
    shard's golden store themselves; only indices cross the pool) and
    hand each ``(index, record)`` to ``sink`` as its chunk lands."""
    from repro.memsim.golden import GoldenSnapshotSource

    assert shard.store is not None
    classify_snapshots(
        shard.factory, GoldenSnapshotSource(shard.store, indices),
        shard.golden_iterations, shard.cfg,
        jobs=jobs, chunk_timeout=chunk_timeout or DEFAULT_CHUNK_TIMEOUT,
        record_sink=lambda local, rec: sink(indices[local], rec),
    )
