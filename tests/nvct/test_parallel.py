"""Parallel campaign engine: determinism, chunking, fallback paths."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.apps.registry import get_factory
from repro.memsim.golden import GoldenSnapshotSource
from repro.nvct import parallel
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.parallel import (
    chunk_indices,
    classify_snapshots,
    resolve_jobs,
)
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import CountingRuntime, Runtime
from repro.nvct.serialize import pack_snapshot, unpack_snapshot
from repro.obs import metrics

#: A gapped index set, as a half-journal resume leaves behind.
GAPPED = [0, 2, 3, 5]


def _golden_store(factory, rt):
    """Run ``factory``'s app under ``rt`` and return its golden store."""
    factory.make(runtime=rt).run()
    return rt.golden_store()


def _crash_images(factory, rt):
    """Run ``factory``'s app under ``rt`` and return stable copies of every crash image."""
    return list(_golden_store(factory, rt).snapshots(copy=True))


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1  # all CPUs
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5
    assert resolve_jobs(2) == 2  # explicit argument wins
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("REPRO_JOBS", "-4")
    assert resolve_jobs(None) == 1


def test_pool_worker_init_restores_default_sigterm():
    """Pool workers must not inherit the CLI's SIGTERM -> KeyboardInterrupt
    handler: ``Pool.terminate()`` SIGTERMs them, which would print a
    traceback from every idle worker at exit."""
    import signal

    from repro.cli import _install_sigterm_handler

    original = signal.getsignal(signal.SIGTERM)
    try:
        _install_sigterm_handler()
        assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
        parallel._classify_worker_init(get_factory("EP"), None, 1, CampaignConfig(), None)
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    finally:
        signal.signal(signal.SIGTERM, original)
        parallel._worker_loop = None


def test_chunk_indices_cover_in_order():
    for n, jobs in [(0, 2), (1, 4), (7, 2), (100, 3), (5, 16)]:
        chunks = chunk_indices(n, jobs)
        flat = [i for lo, hi in chunks for i in range(lo, hi)]
        assert flat == list(range(n))
        assert chunks == chunk_indices(n, jobs)  # purely deterministic


@pytest.mark.parametrize("app", ["EP", "kmeans"])
def test_parallel_records_bit_identical(app):
    cfg = CampaignConfig(n_tests=10, seed=11)
    serial = run_campaign(get_factory(app), cfg, jobs=1)
    parallel = run_campaign(get_factory(app), cfg, jobs=2)
    assert serial.records == parallel.records
    assert serial.recomputability() == parallel.recomputability()


def test_parallel_engine_timeout_falls_back_serially(monkeypatch):
    # A zero-ish timeout abandons the pool immediately; the fallback must
    # still produce the exact serial record sequence.
    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=8, seed=3)
    serial = run_campaign(factory, cfg, jobs=1)
    monkeypatch.setattr(parallel, "DEFAULT_CHUNK_TIMEOUT", 1e-9)
    degraded = run_campaign(factory, cfg, jobs=2)
    assert serial.records == degraded.records


def test_trial_timeout_reaches_pool_workers():
    """``trial_timeout`` bounds every trial a pool worker runs, exactly as
    it bounds the inline loop's: the same trials end ``FAILED``."""
    from repro.nvct.campaign import Response

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=8, seed=3)
    with metrics.enabled() as reg:
        failed = {
            jobs: sum(
                rec.response is Response.FAILED
                for rec in run_campaign(factory, cfg, jobs=jobs, trial_timeout=1e-4).records
            )
            for jobs in (1, 2)
        }
    assert failed[1] > 0
    assert failed[2] == failed[1]
    assert reg.counter("parallel.chunks_parallel", unit="chunks").value > 0


def test_classify_snapshots_matches_inline_classification():
    from repro.nvct.campaign import _classify

    factory = get_factory("EP")
    golden, _ = factory.golden()
    counting = CountingRuntime()
    factory.make(runtime=counting).run()
    points = np.linspace(
        (counting.window_begin or 0) + 1, counting.counter, 6, dtype=np.int64
    )
    cfg = CampaignConfig(plan=PersistencePlan.none())
    store = _golden_store(factory, Runtime(plan=cfg.plan, crash_points=points))
    inline = [_classify(factory, s, golden.iterations, cfg) for s in store.snapshots(GAPPED)]
    fanned = classify_snapshots(
        factory, GoldenSnapshotSource(store, GAPPED), golden.iterations, cfg, jobs=2
    )
    assert inline == fanned


def test_snapshot_pack_roundtrip():
    factory = get_factory("EP")
    counting = CountingRuntime()
    factory.make(runtime=counting).run()
    rt = Runtime(crash_points=[counting.window_begin + 5], capture_consistent=True)
    (snap,) = _crash_images(factory, rt)
    back = unpack_snapshot(pack_snapshot(snap))
    assert back.counter == snap.counter and back.region == snap.region
    assert back.rates == snap.rates
    assert set(back.nvm_state) == set(snap.nvm_state)
    for k in snap.nvm_state:
        np.testing.assert_array_equal(back.nvm_state[k], snap.nvm_state[k])
        np.testing.assert_array_equal(back.consistent_state[k], snap.consistent_state[k])


def test_record_sink_sees_every_record_exactly_once():
    from repro.nvct.campaign import _classify

    factory = get_factory("EP")
    golden, _ = factory.golden()
    counting = CountingRuntime()
    factory.make(runtime=counting).run()
    points = np.linspace(
        (counting.window_begin or 0) + 1, counting.counter, 8, dtype=np.int64
    )
    cfg = CampaignConfig(plan=PersistencePlan.none())
    store = _golden_store(factory, Runtime(plan=cfg.plan, crash_points=points))
    sunk: dict[int, object] = {}

    def sink(index, record):
        assert index not in sunk  # exactly once per trial
        sunk[index] = record

    fanned = classify_snapshots(
        factory, GoldenSnapshotSource(store, GAPPED), golden.iterations, cfg,
        jobs=2, record_sink=sink,
    )
    assert sorted(sunk) == list(range(len(GAPPED)))
    assert [sunk[i] for i in range(len(GAPPED))] == fanned
    assert fanned == [
        _classify(factory, s, golden.iterations, cfg) for s in store.snapshots(GAPPED)
    ]


def test_spawn_pool_matches_serial(monkeypatch):
    """Without ``fork`` (macOS, Windows) each worker receives the golden
    store pickled once through the pool initializer; records must not
    change, and the chunks must really run in the workers."""
    monkeypatch.setattr(parallel, "_pool_context", lambda: multiprocessing.get_context("spawn"))
    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=6, seed=13)
    serial = run_campaign(factory, cfg, jobs=1)
    with metrics.enabled() as reg:
        spawned = run_campaign(factory, cfg, jobs=2)
    assert spawned.records == serial.records
    pooled = reg.counter("parallel.chunks_parallel", unit="chunks").value
    assert pooled == reg.counter("parallel.chunks_total", unit="chunks").value > 0


def test_dead_pool_worker_never_changes_records(monkeypatch):
    """A pool worker that dies mid-chunk never posts its chunk; the parent
    waits out the chunk timeout, ends the pool and classifies every chunk
    that has not landed itself, without touching the results."""
    from repro.nvct import campaign

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=8, seed=7)
    serial = run_campaign(factory, cfg, jobs=1)
    parent, trial_loop = os.getpid(), campaign._trial_loop

    def dying_trial_loop(factory, store, golden_iterations, cfg, indices, trial_timeout=None):
        # Workers look the loop up after fork; every chunk but the first dies.
        if os.getpid() != parent and indices[0] != 0:
            os._exit(17)
        return trial_loop(factory, store, golden_iterations, cfg, indices, trial_timeout)

    monkeypatch.setattr(campaign, "_trial_loop", dying_trial_loop)
    monkeypatch.setattr(parallel, "DEFAULT_CHUNK_TIMEOUT", 2.0)
    start = time.monotonic()
    with metrics.enabled() as reg:
        survived = run_campaign(factory, cfg, jobs=2)
    elapsed = time.monotonic() - start
    assert survived.records == serial.records
    assert reg.counter("parallel.chunks_serial_fallback", unit="chunks").value > 0
    assert elapsed < 60.0
