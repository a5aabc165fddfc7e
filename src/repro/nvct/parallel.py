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

Classification is pure, so the serial trial loop is always a correct
answer and the pool is only an optimization with one failure path: when
a chunk raises, or has not landed within :data:`DEFAULT_CHUNK_TIMEOUT`
(a dead worker's chunk never lands), or the pool cannot start at all
(an unpicklable factory or store), the pool ends and the parent
classifies every chunk that has not landed, in crash-point order.
Parallelism never changes results or raises new errors.

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
    "DEFAULT_CHUNK_TIMEOUT",
]

if TYPE_CHECKING:  # avoid import cycles at runtime
    from repro.apps.base import AppFactory
    from repro.memsim.golden import GoldenSnapshotSource, GoldenStore
    from repro.nvct.campaign import CampaignConfig, CrashTestRecord

#: Seconds the parent waits for the next chunk before it abandons the
#: pool and classifies the rest itself.
DEFAULT_CHUNK_TIMEOUT = 600.0


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
    trial_timeout: float | None,
) -> None:
    global _worker_loop
    from repro.nvct.campaign import _trial_loop

    # Forked workers inherit the CLI's SIGTERM -> KeyboardInterrupt
    # handler, and Pool.terminate() SIGTERMs them: a worker must simply
    # die there, not print a KeyboardInterrupt traceback.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _worker_loop = functools.partial(
        _trial_loop, factory, store, golden_iterations, cfg, trial_timeout=trial_timeout
    )


def _classify_chunk(chunk: list[int]) -> list["CrashTestRecord"]:
    assert _worker_loop is not None
    return list(_worker_loop(chunk))


def classify_snapshots(
    factory: "AppFactory",
    source: "GoldenSnapshotSource",
    golden_iterations: int,
    cfg: "CampaignConfig",
    jobs: int | None = None,
    record_sink: "Callable[[int, CrashTestRecord], None] | None" = None,
    trial_timeout: float | None = None,
) -> list["CrashTestRecord"]:
    """Classify every trial of ``source``, fanning out over ``jobs`` processes.

    ``source`` is a :class:`~repro.memsim.golden.GoldenSnapshotSource`: a
    golden store plus the ascending (possibly gapped) crash-image indices
    to classify.  At ``jobs`` <= 1 this is the one inline
    :func:`~repro.nvct.campaign._trial_loop` over them.  Otherwise the
    pool initializer hands every worker the factory, the store, the
    golden iteration count, the config and ``trial_timeout`` once; a task
    is the trial indices of one :func:`chunk_indices` cut, and the worker
    replays those images from its own store as borrowed views.  No crash
    image is copied, packed or shipped per task.

    Bit-identical under any job count: classification is pure
    (plain-mode restart, no shared state, no RNG) and records are merged
    in crash-point order.  A chunk that raises or has not landed within
    :data:`DEFAULT_CHUNK_TIMEOUT` ends the pool, and the parent
    classifies every chunk that has not landed.

    ``record_sink(position, record)`` is invoked for every record as soon
    as its chunk lands (journaling hook); positions index
    ``source.indices``.  A run of equal images split across chunks
    restarts once per chunk.  ``trial_timeout`` bounds one trial's wall
    time, in the parent and in every worker alike.
    """
    from repro.nvct.campaign import _trial_loop

    jobs = resolve_jobs(jobs)
    store, indices = source.store, source.indices

    def classify_serial(lo: int, hi: int) -> list:
        out = []
        for rec in _trial_loop(
            factory, store, golden_iterations, cfg, indices[lo:hi], trial_timeout
        ):
            if record_sink is not None:
                record_sink(lo + len(out), rec)
            out.append(rec)
        return out

    if jobs <= 1 or len(indices) < 2:
        return classify_serial(0, len(indices))

    factory.golden()  # warm before fork so workers inherit it
    chunks = chunk_indices(len(indices), jobs)
    out: list = []
    landed = 0
    try:
        with _pool_context().Pool(
            processes=min(jobs, len(chunks)),
            initializer=_classify_worker_init,
            initargs=(factory, store, golden_iterations, cfg, trial_timeout),
        ) as pool:
            results = pool.imap(_classify_chunk, [indices[lo:hi] for lo, hi in chunks])
            for lo, _hi in chunks:
                records = results.next(timeout=DEFAULT_CHUNK_TIMEOUT)
                if record_sink is not None:
                    for offset, rec in enumerate(records):
                        record_sink(lo + offset, rec)
                out.extend(records)
                landed += 1
    except Exception:
        pass  # the pool is done: the parent classifies what has not landed
    for lo, hi in chunks[landed:]:
        out.extend(classify_serial(lo, hi))
    if (reg := registry()) is not None:
        # Pool utilisation: how much of the fan-out actually ran in
        # workers vs. fell back to the parent.
        reg.gauge("parallel.jobs", unit="workers").set(jobs)
        reg.counter("parallel.chunks_total", unit="chunks").inc(len(chunks))
        reg.counter("parallel.chunks_parallel", unit="chunks").inc(landed)
        reg.counter("parallel.chunks_serial_fallback", unit="chunks").inc(
            len(chunks) - landed
        )
        reg.gauge("parallel.pool_utilization", unit="ratio").set(landed / len(chunks))
    return out
