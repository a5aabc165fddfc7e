"""Parallel campaign engine: determinism, chunking, fallback paths."""

import multiprocessing

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
        parallel._classify_worker_init(get_factory("EP"), None, 1, CampaignConfig())
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


def test_parallel_engine_timeout_falls_back_serially():
    # A zero-ish timeout abandons the pool immediately; the fallback must
    # still produce the exact serial record sequence.
    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=8, seed=3)
    serial = run_campaign(factory, cfg, jobs=1)
    degraded = run_campaign(factory, cfg, jobs=2, chunk_timeout=1e-9)
    assert serial.records == degraded.records


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
    from repro.harness import chaos

    # Spawned workers read REPRO_CHAOS afresh; a worker death would hide
    # the pool behind the serial fallback this test rules out.
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.disable()
    monkeypatch.setattr(parallel, "_pool_context", lambda: multiprocessing.get_context("spawn"))
    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=6, seed=13)
    try:
        serial = run_campaign(factory, cfg, jobs=1)
        with metrics.enabled() as reg:
            spawned = run_campaign(factory, cfg, jobs=2)
    finally:
        chaos.reset()
    assert spawned.records == serial.records
    pooled = reg.counter("parallel.chunks_parallel", unit="chunks").value
    assert pooled == reg.counter("parallel.chunks_total", unit="chunks").value > 0


def test_worker_death_chaos_never_changes_records():
    """Injected worker deaths (os._exit in the pool) are absorbed by chunk
    retries and the serial-fallback path without touching the results."""
    from repro.harness import chaos

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=8, seed=7)
    chaos.disable()
    serial = run_campaign(factory, cfg, jobs=1)
    chaos.enable(13, 0.3, kinds=["worker_death"])
    try:
        # short chunk timeout: a killed worker never posts its result, so
        # the timeout is the death-detection latency
        survived = run_campaign(factory, cfg, jobs=2, chunk_timeout=2.0)
    finally:
        chaos.reset()
    assert survived.records == serial.records
