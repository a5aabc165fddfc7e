"""Persistent artifact cache: round-trips, content keys, corruption handling."""

import pytest

from repro.harness.cache import (
    ArtifactCache,
    campaign_key,
    measure_key,
    plan_fingerprint,
    plan_report_key,
)
from repro.harness.context import ExperimentContext, ExperimentSettings
from repro.apps.registry import get_factory
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.plan import PersistencePlan

SMALL = ExperimentSettings(n_tests=5, planner_tests=8, refinement_tests=5)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def test_campaign_round_trip(cache):
    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=6, seed=4)
    result = run_campaign(factory, cfg)
    key = campaign_key(factory, cfg)
    assert cache.get_campaign(key) is None  # cold miss
    cache.put_campaign(key, result)
    loaded = cache.get_campaign(key)
    assert loaded is not None
    assert loaded.records == result.records
    assert loaded.plan == result.plan
    assert loaded.run_stats.total_accesses == result.run_stats.total_accesses
    assert cache.stats() == {
        "hits": 1, "misses": 1, "errors": 0, "stores": 1, "store_errors": 0,
        "quarantined": 0, "evictions": 0,
    }


def test_key_changes_with_plan_and_config():
    factory = get_factory("EP")
    base = CampaignConfig(n_tests=6, seed=4)
    assert campaign_key(factory, base) == campaign_key(factory, CampaignConfig(n_tests=6, seed=4))
    assert campaign_key(factory, base) != campaign_key(factory, CampaignConfig(n_tests=7, seed=4))
    assert campaign_key(factory, base) != campaign_key(factory, CampaignConfig(n_tests=6, seed=5))
    flushed = CampaignConfig(n_tests=6, seed=4, plan=PersistencePlan.at_loop_end(["q"]))
    assert campaign_key(factory, base) != campaign_key(factory, flushed)
    verified = CampaignConfig(n_tests=6, seed=4, verified_mode=True)
    assert campaign_key(factory, base) != campaign_key(factory, verified)
    # campaign / measure / plan-report keys never collide with each other
    assert len({campaign_key(factory, base), measure_key(factory, base)}) == 2
    from repro.core.planner import EasyCrashConfig

    assert plan_report_key(factory, EasyCrashConfig()) != campaign_key(factory, base)


def test_plan_fingerprint_distinguishes_plans():
    none = PersistencePlan.none()
    assert plan_fingerprint(none) == plan_fingerprint(PersistencePlan.none())
    assert plan_fingerprint(none) != plan_fingerprint(PersistencePlan.at_loop_end(["a"]))
    assert plan_fingerprint(PersistencePlan.at_loop_end(["a"])) != plan_fingerprint(
        PersistencePlan.at_loop_end(["a"], frequency=2)
    )


def test_corrupted_entry_recomputes(cache):
    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=5, seed=9)
    key = campaign_key(factory, cfg)
    cache.put_campaign(key, run_campaign(factory, cfg))
    path = cache._path("campaign", key, "json")
    path.write_text("{ not json !")
    assert cache.get_campaign(key) is None
    assert cache.errors == 1
    # recompute and heal the entry
    cache.put_campaign(key, run_campaign(factory, cfg))
    assert cache.get_campaign(key) is not None


def test_warm_context_session_recomputes_nothing(tmp_path):
    store = tmp_path / "artifacts"
    plan = PersistencePlan.none()

    cold = ExperimentContext(SMALL, cache=ArtifactCache(store))
    c_cold = cold.campaign("EP", plan, "t")
    m_cold = cold.measure("EP", plan, "t")
    p_cold = cold.plan_report("EP")
    assert cold.campaign_computations == 1
    assert cold.measure_computations == 1
    assert cold.plan_computations == 1

    warm = ExperimentContext(SMALL, cache=ArtifactCache(store))
    c_warm = warm.campaign("EP", plan, "t")
    m_warm = warm.measure("EP", plan, "t")
    p_warm = warm.plan_report("EP")
    assert warm.campaign_computations == 0
    assert warm.measure_computations == 0
    assert warm.plan_computations == 0
    assert warm.cache_stats()["hits"] == 3
    assert c_warm.records == c_cold.records
    assert m_warm.total_accesses == m_cold.total_accesses
    assert p_warm.plan == p_cold.plan


def test_changed_settings_miss_the_disk_cache(tmp_path):
    store = tmp_path / "artifacts"
    plan = PersistencePlan.none()
    a = ExperimentContext(SMALL, cache=ArtifactCache(store))
    a.campaign("EP", plan, "t")
    bigger = ExperimentSettings(n_tests=7, planner_tests=8, refinement_tests=5)
    b = ExperimentContext(bigger, cache=ArtifactCache(store))
    b.campaign("EP", plan, "t")
    assert b.campaign_computations == 1  # different n_tests -> different key


def test_context_label_collision_fixed():
    """Same label + different plan used to silently return the wrong
    campaign; the content-keyed cache must keep them distinct."""
    ctx = ExperimentContext(SMALL)
    a = ctx.campaign("EP", ctx.plan_none(), "same-label")
    b = ctx.campaign("EP", PersistencePlan.at_loop_end(["q"]), "same-label")
    assert a is not b
    assert a.plan != b.plan
    # and differing n_tests/verified under one label are distinct too
    c = ctx.campaign("EP", ctx.plan_none(), "same-label", n_tests=7)
    assert c is not a and c.n_tests != a.n_tests


def test_context_without_disk_cache_still_memoizes():
    ctx = ExperimentContext(SMALL, cache=None)
    assert ctx.disk_cache is None or ctx.disk_cache  # from_env may supply one
    a = ctx.campaign("EP", ctx.plan_none(), "t")
    b = ctx.campaign("EP", ctx.plan_none(), "t")
    assert a is b


def test_from_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert ArtifactCache.from_env() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    cache = ArtifactCache.from_env()
    assert cache is not None and cache.root.exists()


# -- I/O faults (the recording seam raises them at the real call) ----------------


def _ep3():
    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=3, seed=6)
    return campaign_key(factory, cfg), run_campaign(factory, cfg)


def test_os_error_read_is_transient_and_never_quarantines(tmp_path):
    """A failed read of an entry is a counted miss; the entry itself is
    intact and MUST stay in place (quarantine is for bad bytes only)."""
    from tests.harness.recording_fs import RecordingFS

    key, result = _ep3()
    cache = ArtifactCache(tmp_path / "store")
    cache.put_campaign(key, result)
    fs = RecordingFS(tmp_path)
    fs.fail("read", path=f"{key}.json")
    with fs.recording():
        assert cache.get_campaign(key) is None  # transient failure -> miss
    stats = cache.stats()
    assert stats["errors"] == 1 and stats["misses"] == 1
    assert stats["quarantined"] == 0
    assert not (tmp_path / "store" / "quarantine").exists()
    assert cache.get_campaign(key) is not None  # entry survived untouched


@pytest.mark.parametrize("kind", ["fsync", "rename"])
def test_os_error_write_abandons_store_cleanly(tmp_path, kind):
    """A store whose fsync or publishing rename fails is counted, its temp
    file unlinked, and nothing is published."""
    from tests.harness.recording_fs import RecordingFS

    key, result = _ep3()
    cache = ArtifactCache(tmp_path / "store")
    fs = RecordingFS(tmp_path)
    fs.fail(kind, path=".tmp")
    with fs.recording():
        cache.put_campaign(key, result)
    assert cache.stats()["store_errors"] == 1 and cache.stats()["stores"] == 0
    assert any(op.kind == "unlink" and op.path.endswith(".tmp") for op in fs.ops)
    assert not list((tmp_path / "store").rglob("*.tmp"))
    assert not list((tmp_path / "store").rglob(f"{key}.json"))
