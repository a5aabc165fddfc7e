"""Multi-core runtime and the multi-threaded-conclusions-match property."""

import numpy as np
import pytest

from repro.apps.base import AppFactory
from repro.apps.parallel_kmeans import ParallelKMeans
from repro.errors import ConfigError, UsageError
from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.nvct.campaign import CampaignConfig, _instrumented_run, run_campaign
from repro.nvct.managed import Workspace
from repro.nvct.multicore_runtime import MulticoreRuntime
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import CountingRuntime, Runtime
from tests.apps.conftest import small_factory
from tests.nvct.legacy_oracle import legacy_campaign


def test_core_scoping():
    rt = MulticoreRuntime(n_cores=4)
    ws = Workspace(rt)
    a = ws.array("a", (64,))
    with rt.on_core(2):
        a.write(slice(0, 32), 1.0)
    assert rt.hierarchy.l1s[2].resident_dirty_blocks().size > 0
    assert rt.hierarchy.l1s[0].resident_dirty_blocks().size == 0
    with pytest.raises(ConfigError):
        with rt.on_core(9):
            pass


def test_parallel_chunks_cover_everything():
    rt = MulticoreRuntime(n_cores=3)
    chunks = rt.parallel_chunks(10)
    seen = []
    for core, sl in chunks:
        assert 0 <= core < 3
        seen.extend(range(sl.start, sl.stop))
    assert seen == list(range(10))


def test_flush_gathers_all_cores_dirty_lines():
    rt = MulticoreRuntime(n_cores=2)
    ws = Workspace(rt)
    a = ws.array("a", (32,))  # 4 blocks
    with rt.on_core(0):
        a.write(slice(0, 16), 1.0)
    with rt.on_core(1):
        a.write(slice(16, 32), 2.0)
    a.persist()
    assert np.all(a.obj.nvm_view()[:16] == 1.0)
    assert np.all(a.obj.nvm_view()[16:] == 2.0)


def test_parallel_kmeans_matches_serial_result():
    serial = AppFactory(ParallelKMeans, n_points=2048, n_features=4, k=6, seed=7)
    app_serial = serial.make(None)
    r1 = app_serial.run()

    rt = MulticoreRuntime(n_cores=4)
    app_mt = ParallelKMeans(runtime=rt, n_points=2048, n_features=4, k=6, seed=7)
    app_mt.setup()
    r2 = app_mt.run()
    assert r1.iterations == r2.iterations
    assert app_serial.reference_outcome() == pytest.approx(app_mt.reference_outcome())


def test_multithreaded_campaign_reaches_same_conclusions():
    """Paper Sec. 4.1: "the conclusions we draw from the results of
    multiple threads are the same as those of single thread"."""
    factory = AppFactory(ParallelKMeans, n_points=4096, n_features=4, k=6, seed=7)
    plans = {
        "none": PersistencePlan.none(),
        "crit": PersistencePlan.at_loop_end(["centroids", "inertia", "assign"]),
    }
    results = {}
    for cores in (1, 4):
        for label, plan in plans.items():
            cfg = CampaignConfig(n_tests=25, seed=9, plan=plan, n_cores=cores)
            results[(cores, label)] = run_campaign(factory, cfg).recomputability()
    # Same qualitative conclusion on 1 and 4 cores: persistence repairs
    # the fragile baseline.
    for cores in (1, 4):
        assert results[(cores, "crit")] > results[(cores, "none")] + 0.3
    assert abs(results[(1, "crit")] - results[(4, "crit")]) < 0.25


@pytest.mark.parametrize("name", ["IS", "botsspar"])
def test_one_core_runtime_records_what_the_two_level_runtime_records(name):
    factory = small_factory(name)
    candidates = [o.name for o in factory.make(None).ws.heap.candidates()]
    plan = PersistencePlan.at_loop_end(candidates)
    l1 = CacheLevelConfig("L1", 32 * 1024, 8)
    llc = CacheLevelConfig("LLC", 640 * 1024, 10)
    counting = CountingRuntime()
    factory.make(runtime=counting).run()
    points = np.linspace(counting.window_begin, counting.counter, 12, dtype=np.int64)
    runtimes = [
        Runtime(hierarchy=HierarchyConfig((l1, llc)), plan=plan, crash_points=points),
        MulticoreRuntime(n_cores=1, l1=l1, llc=llc, plan=plan, crash_points=points),
    ]
    for rt in runtimes:
        factory.make(runtime=rt).run()
        rt.finalize()
    single, multi = runtimes
    assert any(ev.clean_resident for ev in single.persist_events)
    assert multi.persist_events == single.persist_events
    stats = multi.hierarchy.stats.as_dict()
    stats["L1"] = stats.pop("L1.0")
    assert stats == single.hierarchy.stats.as_dict()
    images = zip(single.golden_store().snapshots(), multi.golden_store().snapshots(), strict=True)
    for a, b in images:
        assert (a.counter, a.iteration, a.region, a.rates) == (b.counter, b.iteration, b.region, b.rates)
        assert a.nvm_state.keys() == b.nvm_state.keys()
        assert all(np.array_equal(a.nvm_state[k], b.nvm_state[k]) for k in a.nvm_state)


def test_multicore_campaign_builds_its_cores_from_a_two_level_hierarchy():
    l1 = CacheLevelConfig("L1", 4 * 1024, 4)
    llc = CacheLevelConfig("LLC", 128 * 1024, 8)
    cfg = CampaignConfig(n_tests=3, seed=1, n_cores=2, hierarchy=HierarchyConfig((l1, llc)))
    rt, _ = _instrumented_run(small_factory("EP"), cfg, None)
    assert [lv.config for lv in rt.hierarchy.levels] == [l1, l1, llc]
    factory = small_factory("EP")
    assert run_campaign(factory, cfg).records == legacy_campaign(factory, cfg).records


@pytest.mark.parametrize("hierarchy", [HierarchyConfig.scaled_llc(), HierarchyConfig.scaled_three_level()])
def test_multicore_campaign_refuses_other_hierarchy_shapes(hierarchy):
    cfg = CampaignConfig(n_tests=3, seed=1, n_cores=2, hierarchy=hierarchy)
    with pytest.raises(UsageError, match=f"this one has {len(hierarchy.levels)} levels"):
        run_campaign(small_factory("EP"), cfg)
