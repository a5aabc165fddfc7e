"""Trace-equivalence pass: pruned crash plans reproduce the full campaign.

The headline proof (two apps): a campaign run under an equivalence-pruned
crash plan executes >= 10x fewer restart trials than the naive campaign
yet produces a **bit-identical** record list — every per-record field and
every aggregate (recomputability, per-object inconsistent rates) exactly
equal, not approximately.
"""

import dataclasses

import pytest

from repro.analysis.equiv_pass import (
    CrashPlan,
    DEFAULT_TAIL,
    build_crash_plan,
    cached_tail_ok,
    crash_plan_key,
    partition_signatures,
)
from repro.apps.base import AppFactory
from repro.errors import UsageError
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.plan import PersistencePlan


def small_factory(name):
    if name == "EP":
        from repro.apps.ep import EP

        return AppFactory(EP, batches=8, batch_size=256, seed=2020)
    from repro.apps.kmeans import KMeans

    return AppFactory(KMeans, n_points=256, n_features=4, k=4, seed=2020)


def loop_cfg(factory, n_tests, seed=3):
    app = factory.make(None)
    cands = [o.name for o in app.ws.heap.candidates()]
    return CampaignConfig(
        n_tests=n_tests, seed=seed, plan=PersistencePlan.at_loop_end(cands)
    )


# -- partitioning --------------------------------------------------------------

def test_partition_signatures_run_length_groups():
    a, b, c = (1, 0), (2, 0), (2, 1)
    assert partition_signatures([a, a, b, b, b, c]) == [0, 0, 1, 1, 1, 2]
    assert partition_signatures([]) == []
    assert partition_signatures([a]) == [0]


def test_partition_signatures_ids_are_dense_and_ascending():
    sigs = [(0,), (0,), (5,), (9,), (9,)]
    ids = partition_signatures(sigs)
    assert ids == [0, 0, 1, 2, 2]


# -- the proof: bit-identical at >= 10x fewer trials ---------------------------

@pytest.mark.parametrize("app_name,n_tests", [("EP", 200), ("kmeans", 400)])
def test_pruned_campaign_is_bit_identical_at_10x(app_name, n_tests, monkeypatch):
    factory = small_factory(app_name)
    cfg = loop_cfg(factory, n_tests)
    plan = build_crash_plan(factory, cfg)

    classified = []
    import repro.nvct.campaign as campaign_mod

    real_classify = campaign_mod._classify

    def counting_classify(*args, **kwargs):
        classified.append(1)
        return real_classify(*args, **kwargs)

    full = run_campaign(factory, cfg)
    monkeypatch.setattr(campaign_mod, "_classify", counting_classify)
    pruned = run_campaign(factory, cfg, plan=plan)

    # >= 10x fewer executed restart trials, and only the plan's indices ran
    assert pruned.executed_trials == len(plan.executed_indices())
    assert len(classified) == pruned.executed_trials
    assert full.n_tests / pruned.executed_trials >= 10

    # bit-identical record list: every field of every record
    assert len(full.records) == len(pruned.records)
    for a, b in zip(full.records, pruned.records):
        assert a == b

    # and therefore every aggregate, exactly (float equality intended)
    assert pruned.recomputability() == full.recomputability()
    assert pruned.weighted_object_rates() == full.weighted_object_rates()
    assert pruned.response_fractions() == full.response_fractions()
    assert pruned.per_region_recomputability() == full.per_region_recomputability()


def test_plan_summary_reports_reduction():
    factory = small_factory("EP")
    cfg = loop_cfg(factory, 200)
    plan = build_crash_plan(factory, cfg)
    s = plan.summary()
    assert "200 sampled points" in s
    assert f"{plan.n_classes} equivalence classes" in s
    assert "x fewer than naive" in s


# -- plan integrity ------------------------------------------------------------

def test_plan_save_load_roundtrip(tmp_path):
    factory = small_factory("EP")
    cfg = loop_cfg(factory, 60)
    plan = build_crash_plan(factory, cfg)
    path = plan.save(tmp_path / "plan.json")
    loaded = CrashPlan.load(path)
    assert loaded == plan

    # and the loaded plan drives a campaign (path form, as the CLI does)
    result = run_campaign(factory, cfg, plan=path)
    assert result.executed_trials == len(plan.executed_indices())


def test_plan_rejects_wrong_campaign():
    factory = small_factory("EP")
    cfg = loop_cfg(factory, 60)
    plan = build_crash_plan(factory, cfg)

    other_cfg = loop_cfg(factory, 60, seed=99)
    with pytest.raises(UsageError, match="fingerprint"):
        plan.validate_for(factory, other_cfg)
    with pytest.raises(UsageError, match="fingerprint"):
        run_campaign(factory, other_cfg, plan=plan)

    other_app = small_factory("kmeans")
    with pytest.raises(UsageError, match="app"):
        plan.validate_for(other_app, loop_cfg(other_app, 60))


def test_plan_rejects_incompatible_engine_modes():
    factory = small_factory("EP")
    cfg = loop_cfg(factory, 60)
    plan = build_crash_plan(factory, cfg)
    # A plan whose fingerprint claims a verified campaign still is refused.
    verified = dataclasses.replace(cfg, verified_mode=True)
    forged = dataclasses.replace(plan, campaign_fingerprint=crash_plan_key(factory, verified))
    with pytest.raises(UsageError, match="single-core, non-verified"):
        run_campaign(factory, verified, plan=forged)
    multicore = CampaignConfig(
        n_tests=60, seed=3, plan=cfg.plan, n_cores=2
    )
    with pytest.raises(UsageError):
        build_crash_plan(factory, multicore)


def test_plan_shape_validation_catches_corruption():
    factory = small_factory("EP")
    cfg = loop_cfg(factory, 60)
    doc = build_crash_plan(factory, cfg).to_dict()
    doc["class_ids"] = list(reversed(doc["class_ids"]))
    with pytest.raises(UsageError, match="consecutive"):
        CrashPlan.from_dict(doc)
    with pytest.raises(UsageError, match="not a crash plan"):
        CrashPlan.from_dict({"kind": "something-else"})


def test_crash_plan_key_tracks_campaign_ingredients():
    factory = small_factory("EP")
    cfg = loop_cfg(factory, 60)
    assert crash_plan_key(factory, cfg) == crash_plan_key(factory, cfg)
    assert crash_plan_key(factory, cfg) != crash_plan_key(
        factory, loop_cfg(factory, 61)
    )


# -- caching -------------------------------------------------------------------

def test_build_crash_plan_uses_artifact_cache(tmp_path):
    from repro.harness.cache import ArtifactCache

    cache = ArtifactCache(tmp_path / "cache")
    factory = small_factory("EP")
    cfg = loop_cfg(factory, 60)
    first = build_crash_plan(factory, cfg, cache=cache)
    second = build_crash_plan(factory, cfg, cache=cache)
    assert second == first
    stats = cache.stats()
    assert stats.get("hits", 0) >= 1


def test_cached_tail_ok_semantics():
    plan = CrashPlan(
        app="EP",
        campaign_fingerprint="f",
        seed=0,
        n_tests=4,
        distribution="uniform",
        window=(0, 10),
        points=[1, 2, 3, 4],
        weights=[1, 1, 1, 1],
        class_ids=[0, 0, 1, 1],
        reps=[0, 2],
        tails=[[1], [3]],
    )
    assert cached_tail_ok(plan, 0)
    assert cached_tail_ok(plan, DEFAULT_TAIL)
    assert cached_tail_ok(plan, 5)  # classes have no more members to give


# -- purity audit --------------------------------------------------------------

def test_purity_violation_aborts_loudly():
    from repro.nvct.campaign import CrashTestRecord, Response, _broadcast_plan_records

    plan = CrashPlan(
        app="EP",
        campaign_fingerprint="f",
        seed=0,
        n_tests=2,
        distribution="uniform",
        window=(0, 10),
        points=[1, 2],
        weights=[1, 1],
        class_ids=[0, 0],
        reps=[0],
        tails=[[1]],
    )
    rep = CrashTestRecord(1, 0, "R1", {"u": 0.0}, Response.S1)
    tail = CrashTestRecord(2, 0, "R1", {"u": 0.0}, Response.S4)
    with pytest.raises(RuntimeError, match="purity violation"):
        _broadcast_plan_records(plan, [rep, tail], None)
