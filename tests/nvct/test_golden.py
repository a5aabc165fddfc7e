"""Golden-pass batched simulation: bit-identity against the legacy oracle.

The golden pass (:mod:`repro.memsim.golden`) reconstructs every crash-time
NVM image from the write-back delta log of one instrumented execution.
The copy-and-diff snapshot path lives on only as the test-tree oracle
(:mod:`tests.nvct.legacy_oracle`); every test here asserts the engine
produces records *bit-identical* to it — same responses, same counters,
same per-object inconsistent-rate floats — across applications with
different store patterns, hierarchy depths, verified mode, multi-core
simulation, parallel fan-out and journal resume.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppFactory, Application
from repro.apps.registry import get_factory
from repro.memsim.config import HierarchyConfig
from repro.nvct.campaign import (
    CampaignConfig,
    CrashTestRecord,
    CampaignResult,
    Response,
    _sample_crash_points,
    campaign_points,
    run_campaign,
)
from repro.nvct.plan import PersistencePlan
from repro.nvct.serialize import pack_snapshot, record_from_dict, record_to_dict
from repro.obs import metrics
from tests.nvct.legacy_oracle import legacy_campaign


# -- applications with distinct store patterns --------------------------------


class ContigApp(Application):
    """Contiguous read-modify-write accumulator (store_range fast path)."""

    NAME = "golden-contig"
    REGIONS = ("R1", "R2")
    DEFAULT_MAX_FACTOR = 1.0

    def __init__(self, runtime=None, size: int = 512, nit: int = 6, **kw):
        super().__init__(runtime, size=size, nit=nit, **kw)
        self.size = size
        self.nit = nit

    def nominal_iterations(self):
        return self.nit

    def _allocate(self):
        self.acc = self.ws.array("acc", (self.size,), candidate=True)
        self.scratch = self.ws.array("scratch", (self.size,), candidate=False)

    def _initialize(self):
        self.acc.np[...] = 0.0
        self.scratch.np[...] = 0.0

    def _iterate(self, it):
        with self.ws.region("R1"):
            self.scratch.write(slice(None), float(it + 1))
        with self.ws.region("R2"):
            s = self.scratch.read().copy()
            self.acc.update(slice(None), lambda a: np.add(a, s, out=a))
        return False

    def reference_outcome(self):
        return {"sum": float(self.acc.np.sum())}

    def verify(self):
        if self.golden is None:
            return True
        return self.reference_outcome()["sum"] == self.golden["sum"]


class ScatterApp(Application):
    """Scatter/gather stores via ``write_at``/``read_at``, including a
    non-temporal streaming store each iteration (access_scattered path)."""

    NAME = "golden-scatter"
    REGIONS = ("gather", "scatter")
    DEFAULT_MAX_FACTOR = 1.0

    def __init__(self, runtime=None, size: int = 512, nit: int = 6, **kw):
        super().__init__(runtime, size=size, nit=nit, **kw)
        self.size = size
        self.nit = nit

    def nominal_iterations(self):
        return self.nit

    def _allocate(self):
        self.table = self.ws.array("table", (self.size,), candidate=True)
        self.log = self.ws.array("log", (self.size,), candidate=True)

    def _initialize(self):
        self.table.np[...] = 1.0
        self.log.np[...] = 0.0

    def _iterate(self, it):
        rng = np.random.default_rng(1234 + it)
        idx = rng.permutation(self.size)[: self.size // 2]
        with self.ws.region("gather"):
            vals = self.table.read_at(idx)
        with self.ws.region("scatter"):
            self.table.write_at(idx, vals + 1.0)
            # Streaming store of the audit log: bypasses the cache (MOVNT).
            self.log.write_at(idx, vals, nontemporal=True)
        return False

    def reference_outcome(self):
        return {
            "sum": float(self.table.np.sum()),
            "log": float(self.log.np.sum()),
        }

    def verify(self):
        if self.golden is None:
            return True
        return self.reference_outcome() == self.golden


class BulkApp(Application):
    """Bulk multi-block contiguous stores: crash points frequently land
    *inside* a store, exercising the split-store path, plus single-element
    writes for the sub-block path."""

    NAME = "golden-bulk"
    REGIONS = ("bulk",)
    DEFAULT_MAX_FACTOR = 1.0

    def __init__(self, runtime=None, size: int = 2048, nit: int = 5, **kw):
        super().__init__(runtime, size=size, nit=nit, **kw)
        self.size = size
        self.nit = nit

    def nominal_iterations(self):
        return self.nit

    def _allocate(self):
        self.field = self.ws.array("field", (self.size,), candidate=True)

    def _initialize(self):
        self.field.np[...] = 0.0

    def _iterate(self, it):
        with self.ws.region("bulk"):
            base = self.field.read(slice(0, 8)).copy()
            self.field.write(slice(None), float(it) + base[0])
            self.field.write(int(it % self.size), -1.0)
        return False

    def reference_outcome(self):
        return {"sum": float(self.field.np.sum())}

    def verify(self):
        if self.golden is None:
            return True
        return self.reference_outcome()["sum"] == self.golden["sum"]


APPS = {
    "contig": lambda: AppFactory(ContigApp),
    "scatter": lambda: AppFactory(ScatterApp),
    "bulk": lambda: AppFactory(BulkApp),
}

HIERARCHIES = {
    "llc": None,  # default single-level scaled LLC
    "three-level": HierarchyConfig.scaled_three_level(),
}


def _records_json(result: CampaignResult) -> list[str]:
    return [json.dumps(record_to_dict(r), sort_keys=True) for r in result.records]


def _assert_equivalent(fac: AppFactory, cfg: CampaignConfig, **kw) -> CampaignResult:
    legacy = legacy_campaign(fac, cfg)
    golden = run_campaign(fac, cfg, **kw)
    assert _records_json(golden) == _records_json(legacy)
    assert golden.records == legacy.records
    return golden


# -- the equivalence matrix ---------------------------------------------------


@pytest.mark.parametrize("hier", sorted(HIERARCHIES))
@pytest.mark.parametrize("app", sorted(APPS))
def test_golden_matches_legacy_bit_identically(app, hier):
    cfg = CampaignConfig(n_tests=16, seed=21, hierarchy=HIERARCHIES[hier])
    res = _assert_equivalent(APPS[app](), cfg)
    assert res.n_tests == 16


PLAN_OBJECTS = {"contig": ["acc"], "scatter": ["table", "log"], "bulk": ["field"]}


@pytest.mark.parametrize("app", sorted(APPS))
def test_golden_matches_legacy_with_flush_plan(app):
    cfg = CampaignConfig(
        n_tests=12, seed=5,
        plan=PersistencePlan.at_loop_end(PLAN_OBJECTS[app]),
    )
    _assert_equivalent(APPS[app](), cfg)


def test_golden_matches_legacy_under_skewed_distribution():
    cfg = CampaignConfig(n_tests=12, seed=9, distribution="early")
    _assert_equivalent(APPS["contig"](), cfg)


def test_parallel_golden_matches_serial_legacy():
    cfg = CampaignConfig(n_tests=12, seed=13)
    legacy = legacy_campaign(APPS["scatter"](), cfg)
    golden = run_campaign(APPS["scatter"](), cfg, jobs=2)
    assert _records_json(golden) == _records_json(legacy)


# -- verified mode and multi-core simulation ----------------------------------

ENGINE_CONFIGS = {
    "verified": {"verified_mode": True},
    "cores2": {"n_cores": 2},
    "cores4": {"n_cores": 4},
    "verified-cores2": {"verified_mode": True, "n_cores": 2},
}


@pytest.mark.parametrize("config", list(ENGINE_CONFIGS))
@pytest.mark.parametrize("app", ["EP", "IS", "kmeans", "MG", "kmeans-mt"])
def test_verified_and_multicore_match_legacy_oracle(app, config):
    """Verified mode restarts from the recorder's architectural copies and
    the multi-core runtime rides the same recorder: both must reproduce
    the copy-and-diff oracle, serially and through the pool."""
    cfg = CampaignConfig(n_tests=5, seed=5, **ENGINE_CONFIGS[config])
    legacy = _records_json(legacy_campaign(get_factory(app), cfg))
    for jobs in (1, 2):
        assert _records_json(run_campaign(get_factory(app), cfg, jobs=jobs)) == legacy


def test_verified_mode_with_flush_plan_matches_legacy_oracle():
    cfg = CampaignConfig(
        n_tests=8, seed=3, verified_mode=True,
        plan=PersistencePlan.at_loop_end(PLAN_OBJECTS["contig"]),
    )
    _assert_equivalent(APPS["contig"](), cfg)


def test_verified_and_multicore_campaigns_use_the_store():
    """Exact counters: every image of a verified and of a two-core
    campaign is recorded by the golden recorder and materialized once
    from its store."""
    for kw in ({"verified_mode": True}, {"n_cores": 2}):
        metrics.reset()
        with metrics.enabled() as reg:
            run_campaign(APPS["contig"](), CampaignConfig(n_tests=7, seed=8, **kw), jobs=1)
            assert reg.counter("golden.images_materialized", unit="images").value == 7
            assert reg.counter("runtime.snapshots", unit="snapshots").value == 7
        metrics.reset()


# -- zero-trial campaigns -----------------------------------------------------


@pytest.mark.parametrize(
    "kw", [{}, {"verified_mode": True}, {"n_cores": 2}, {"nodes": 1}],
    ids=["default", "verified", "cores2", "nodes1"],
)
def test_zero_trial_campaign_is_empty(kw):
    """No crash points means a zero-image store, not an error."""
    from repro.cluster import run_cluster_campaign

    cfg = CampaignConfig(n_tests=0, **kw)
    if kw.get("nodes"):
        assert run_cluster_campaign(APPS["contig"](), cfg).node_results == {}
        return
    result = run_campaign(APPS["contig"](), cfg)
    assert result.records == []
    assert result.run_stats.total_accesses > 0  # the instrumented run still ran


# -- journal resume mid-batch -------------------------------------------------


def test_golden_resume_from_journal_mid_batch(tmp_path):
    fac = APPS["contig"]()
    cfg = CampaignConfig(n_tests=10, seed=17)
    baseline = legacy_campaign(fac, cfg)

    path = tmp_path / "j.jsonl"
    run_campaign(fac, cfg, journal=path)
    # Simulate a crash mid-campaign: keep the header + 4 journaled trials.
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 1 + cfg.n_tests
    path.write_bytes(b"".join(lines[:5]))

    resumed = run_campaign(fac, cfg, journal=path)
    assert resumed.records == baseline.records
    assert _records_json(resumed) == _records_json(baseline)


# -- crash-point sampling and record aggregates --------------------------------


@settings(max_examples=150, deadline=None)
@given(
    lo=st.integers(0, 1000),
    span=st.integers(1, 400),
    n_tests=st.integers(1, 500),
    seed=st.integers(0, 2**31),
    distribution=st.sampled_from(["uniform", "early", "late"]),
)
def test_sampled_crash_points_are_strictly_increasing(lo, span, n_tests, seed, distribution):
    """Every sampled point is one crash test: points never repeat, also
    when the campaign asks for more tests than the window has points."""
    points = _sample_crash_points((lo, lo + span), n_tests, seed, "app", distribution)
    assert points.size == min(n_tests, span)
    assert np.all(np.diff(points) > 0)
    assert points[0] > lo and points[-1] <= lo + span


def test_dedupe_crash_points():
    """No crash point needs deduplicating: a skewed draw that asks for more
    tests than the window has points yields each point once, and the
    weights ``campaign_points`` hands the benchmark harness are all ones."""
    points = _sample_crash_points((5, 12), 50, 3, "app", "early")
    assert points.tolist() == list(range(6, 13))
    points, weights = campaign_points(
        APPS["contig"](), CampaignConfig(n_tests=40, seed=2, distribution="late")
    )
    assert points.size == 40 and np.unique(points).size == points.size
    assert weights.tolist() == [1] * points.size


def test_uniform_sampling_yields_unit_weights():
    """A uniform campaign runs one record per requested test, each at its
    own crash counter, so every record counts once in the aggregates."""
    res = run_campaign(APPS["contig"](), CampaignConfig(n_tests=10, seed=2))
    counters = [r.counter for r in res.records]
    assert res.n_tests == len(res.records) == 10
    assert len(set(counters)) == 10
    assert res.response_counts() == {
        r: sum(rec.response is r for rec in res.records) for r in Response
    }


def test_record_weight_round_trips_through_serialization():
    """A record's document has no ``weight`` key: every record is one
    crash test, so the saved shape is the same for every campaign."""
    rec = CrashTestRecord(10, 2, "R1", {"acc": 0.5}, Response.S2, extra_iterations=1)
    doc = record_to_dict(rec)
    assert set(doc) == {"counter", "iteration", "region", "rates", "response",
                        "extra_iterations"}
    assert record_from_dict(doc) == rec
    failed = CrashTestRecord(11, 2, "R1", {"acc": 0.5}, Response.FAILED, error="boom")
    assert record_from_dict(record_to_dict(failed)) == failed


def test_weighted_aggregations():
    """Every aggregate counts each record once."""
    records = [
        CrashTestRecord(1, 0, "R1", {"a": 0.1}, Response.S1),
        CrashTestRecord(2, 0, "R1", {"a": 0.2}, Response.S1),
        CrashTestRecord(3, 0, "R1", {"a": 0.3}, Response.S2, extra_iterations=2),
        CrashTestRecord(4, 0, "R2", {"a": 0.4}, Response.S2, extra_iterations=5),
        CrashTestRecord(5, 0, "R2", {"a": 0.5}, Response.S3),
    ]
    res = CampaignResult("x", PersistencePlan.none(), records,
                         run_stats=None, golden_iterations=4)
    assert res.n_tests == 5
    assert res.recomputability() == 2 / 5
    assert res.response_counts() == {
        Response.S1: 2, Response.S2: 2, Response.S3: 1, Response.S4: 0, Response.FAILED: 0,
    }
    fr = res.response_fractions()
    assert fr[Response.S1] == 2 / 5
    assert fr[Response.S2] == 2 / 5
    assert fr[Response.S3] == 1 / 5
    assert fr[Response.S4] == 0.0
    assert res.mean_extra_iterations() == (2 + 5) / 2
    assert res.per_region_recomputability() == {"R1": 2 / 3, "R2": 0.0}
    assert res.mean_object_rates() == {"a": math.fsum([0.1, 0.2, 0.3, 0.4, 0.5]) / 5}
    assert res.success_vector().tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]
    empty = CampaignResult("x", PersistencePlan.none(), [], run_stats=None, golden_iterations=4)
    assert empty.n_tests == 0 and math.isnan(empty.recomputability())
    assert set(empty.response_fractions().values()) == {0.0}
    assert empty.mean_object_rates() == {}


# -- zero-copy guarantees -----------------------------------------------------


def test_serial_golden_path_copies_no_snapshot_bytes():
    """The regression the COW satellite guards: a serial golden campaign
    materializes every image as a borrowed view — no ``pack_snapshot``
    full-array copies, no stable-copy materialization."""
    metrics.reset()
    with metrics.enabled() as reg:
        res = run_campaign(APPS["contig"](), CampaignConfig(n_tests=10, seed=8), jobs=1)
        assert reg.counter("serialize.bytes_copied", unit="bytes").value == 0
        assert reg.counter("golden.bytes_copied", unit="bytes").value == 0
        assert reg.counter("golden.images_materialized", unit="images").value == 10
        assert reg.counter("golden.deltas_recorded", unit="events").value > 0
        assert reg.counter("golden.replay_ms", unit="ms").value >= 0
    metrics.reset()
    assert res.n_tests == 10


def test_parallel_golden_path_ships_indices_not_images():
    """The pool's workers replay their own images from the golden store
    they hold; the parent neither packs nor copies a single image."""
    metrics.reset()
    with metrics.enabled() as reg:
        run_campaign(APPS["contig"](), CampaignConfig(n_tests=10, seed=8), jobs=2)
        assert reg.counter("serialize.bytes_copied", unit="bytes").value == 0
        assert reg.counter("golden.bytes_copied", unit="bytes").value == 0
    metrics.reset()


def test_unpacked_snapshot_arrays_are_zero_copy_views():
    from repro.nvct.serialize import unpack_snapshot

    from repro.nvct.runtime import Snapshot

    snap = Snapshot(0, 5, 1, "R1", {"a": np.arange(8, dtype=np.float64)},
                    {"a": 0.0})
    back = unpack_snapshot(pack_snapshot(snap))
    arr = back.nvm_state["a"]
    assert arr.flags.writeable is False  # frombuffer view over the payload
    np.testing.assert_array_equal(arr, np.arange(8, dtype=np.float64))


def test_borrowed_golden_views_are_read_only():
    fac = APPS["contig"]()
    cfg = CampaignConfig(n_tests=6, seed=4, verified_mode=True)
    from repro.nvct.campaign import _instrumented_run
    from repro.nvct.runtime import CountingRuntime

    counting = CountingRuntime()
    fac.make(runtime=counting).run()
    points = _sample_crash_points(
        (counting.window_begin or 0, counting.counter), cfg.n_tests, cfg.seed,
        fac.name,
    )
    rt, _ = _instrumented_run(fac, cfg, points)
    store = rt.golden_store()
    for snap in store.snapshots(range(store.n_images)):
        assert snap.consistent_state is not None  # verified mode
        for arr in (*snap.nvm_state.values(), *snap.consistent_state.values()):
            assert arr.flags.writeable is False


def test_a_kept_borrowed_snapshot_fails_loudly():
    """``list(zip(store.snapshots(), ...))`` keeps borrowed views past
    their image: reading one raises and names ``copy=True``, while the
    last one, never overtaken, still reads its own image."""
    from repro.nvct.campaign import PreparedShard, plan_shards

    factory = get_factory("EP")
    (plan,), _ = plan_shards(factory, CampaignConfig(n_tests=6, seed=4))
    store = PreparedShard.record(factory, plan).store
    copies = list(store.snapshots(copy=True))
    kept = [snap for snap, _ in zip(store.snapshots(), copies)]
    for snap in kept[:-1]:
        with pytest.raises(RuntimeError, match=r"copy=True"):
            snap.nvm_state["q"]
        with pytest.raises(RuntimeError, match=r"copy=True"):
            snap.nvm_state.items()
    for name, arr in copies[-1].nvm_state.items():
        assert np.array_equal(kept[-1].nvm_state[name], arr)
    # Walked one at a time, borrowed views equal the stable copies.
    for lazy, copied in zip(store.snapshots(), copies, strict=True):
        for name, arr in copied.nvm_state.items():
            assert np.array_equal(lazy.nvm_state[name], arr)


def test_the_trial_loop_reads_borrowed_views_before_they_expire():
    from repro.nvct.campaign import PreparedShard, _classify_trial, _trial_loop, plan_shards

    factory = get_factory("IS")
    cfg = CampaignConfig(n_tests=12, seed=4)
    (plan,), _ = plan_shards(factory, cfg)
    shard = PreparedShard.record(factory, plan)
    store, golden = shard.store, shard.golden_iterations
    records = list(_trial_loop(factory, store, golden, cfg, range(store.n_images)))
    assert records == [
        _classify_trial(factory, snap, golden, cfg) for snap in store.snapshots(copy=True)
    ]


@pytest.mark.parametrize("model", ["whole-cache-loss", "eadr"])
def test_image_signatures_of_some_indices_match_the_full_list(model):
    """Signatures for a call's own indices are the matching entries of the
    whole store's list — bound vectors, plus the overlay digest under a
    crash model that keeps cache bytes."""
    from repro.nvct.campaign import PreparedShard, plan_shards

    fac = get_factory("IS")
    (plan,), _ = plan_shards(fac, CampaignConfig(n_tests=12, seed=1, crash_model=model))
    store = PreparedShard.record(fac, plan).store
    full = store.image_signatures()
    assert len(full) == store.n_images == 12
    assert all(len(sig) == len(full[0]) for sig in full)
    for indices in ([0, 3, 4, 11], [7], [], range(5, 12)):
        assert store.image_signatures(indices) == [full[k] for k in indices]
