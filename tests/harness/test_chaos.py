"""Chaos fault injector: determinism, gating, and end-to-end soaks."""

import json

import pytest

from repro.harness import chaos, store
from repro.harness.chaos import ChaosInjector, InjectedFault


@pytest.fixture(autouse=True)
def _restore_gate():
    """Leave the process gate the way the environment configures it."""
    yield
    chaos.reset()


def test_env_spec_parsing(monkeypatch):
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.reset()
    assert chaos.injector() is None
    monkeypatch.setenv(chaos.ENV_VAR, "7:0.05")
    chaos.reset()
    ch = chaos.injector()
    assert ch is not None and ch.seed == 7 and ch.rate == 0.05
    assert ch.kinds == frozenset(chaos.FAULT_KINDS)
    monkeypatch.setenv(chaos.ENV_VAR, "3:0.5:slow_io,os_error")
    chaos.reset()
    ch = chaos.injector()
    assert ch is not None and ch.kinds == frozenset({"slow_io", "os_error"})
    for bad in ("nope", "1", "a:b", "1:2.0", "1:0.5:badkind"):
        monkeypatch.setenv(chaos.ENV_VAR, bad)
        chaos.reset()
        assert chaos.injector() is None, bad


def test_firing_is_deterministic_per_site_sequence():
    a = ChaosInjector(42, 0.3)
    b = ChaosInjector(42, 0.3)
    seq_a = [a.fires("x", "os_error") for _ in range(50)]
    seq_b = [b.fires("x", "os_error") for _ in range(50)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)
    # different site or kind → a different (still deterministic) schedule
    c = ChaosInjector(42, 0.3)
    assert [c.fires("y", "os_error") for _ in range(50)] != seq_a


def test_rate_extremes_and_kind_filter():
    never = ChaosInjector(1, 0.0)
    always = ChaosInjector(1, 1.0)
    assert not any(never.fires("s", "truncate") for _ in range(20))
    assert all(always.fires("s", "truncate") for _ in range(20))
    filtered = ChaosInjector(1, 1.0, kinds=["slow_io"])
    assert not filtered.fires("s", "truncate")
    assert filtered.fires("s", "slow_io")
    with pytest.raises(ValueError):
        ChaosInjector(1, 2.0)
    with pytest.raises(ValueError):
        ChaosInjector(1, 0.5, kinds=["martian"])


def test_fault_helpers():
    ch = ChaosInjector(5, 1.0, kinds=["os_error", "corrupt_read", "truncate"])
    with pytest.raises(InjectedFault):
        ch.check_io("site")
    data = bytes(range(64))
    damaged = ch.corrupt("site", data)
    assert damaged != data and len(damaged) == len(data)
    # deterministic damage: same injector state ⇒ same corruption
    assert ChaosInjector(5, 1.0).corrupt("site", data) == damaged
    torn = ch.truncate("site", data)
    assert torn == data[: len(data) // 2]
    assert ch.injected["os_error"] == 1
    assert ch.injected["corrupt_read"] == 1


def test_cluster_fault_kinds_registered():
    assert "node_death" in chaos.FAULT_KINDS
    assert "straggler_node" in chaos.FAULT_KINDS


def test_node_death_raises_typed_fault():
    ch = ChaosInjector(5, 1.0, kinds=["node_death"])
    with pytest.raises(chaos.NodeDeath) as excinfo:
        ch.maybe_node_death("cluster.node")
    # A NodeDeath is an InjectedFault (and so an OSError): generic retry
    # paths treat it like any transient failure, while the cluster lease
    # can catch it specifically.
    assert isinstance(excinfo.value, InjectedFault)
    assert ch.injected["node_death"] == 1
    # filtered out → never fires
    quiet = ChaosInjector(5, 1.0, kinds=["slow_io"])
    quiet.maybe_node_death("cluster.node")
    assert "node_death" not in quiet.injected


def test_straggler_returns_whether_it_fired(monkeypatch):
    naps = []
    monkeypatch.setattr(chaos.time, "sleep", naps.append)
    ch = ChaosInjector(5, 1.0, kinds=["straggler_node"])
    assert ch.maybe_straggle("cluster.rollback") is True
    assert naps == [chaos.SLOW_IO_SECONDS]
    quiet = ChaosInjector(5, 1.0, kinds=["slow_io"])
    assert quiet.maybe_straggle("cluster.rollback") is False
    assert naps == [chaos.SLOW_IO_SECONDS]  # no extra sleep


def test_enable_disable_override_env(monkeypatch):
    monkeypatch.setenv(chaos.ENV_VAR, "7:0.5")
    ch = chaos.enable(9, 0.25)
    assert chaos.injector() is ch and ch.seed == 9
    chaos.disable()
    assert chaos.injector() is None
    chaos.reset()
    env_ch = chaos.injector()
    assert env_ch is not None and env_ch.seed == 7


def test_cache_soak_no_torn_entries(tmp_path):
    """≥30% fault injection on every cache path: stores may be lost and
    reads may corrupt, but no torn entry may ever remain on disk."""
    from repro.apps.registry import get_factory
    from repro.harness.cache import ArtifactCache, campaign_key
    from repro.nvct.campaign import CampaignConfig, run_campaign

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=5, seed=1)
    result = run_campaign(factory, cfg)
    key = campaign_key(factory, cfg)
    chaos.enable(11, 0.3)
    cache = ArtifactCache(tmp_path / "store")
    served = 0
    for _ in range(30):
        got = cache.get_campaign(key)
        if got is None:
            cache.put_campaign(key, result)
        else:
            assert got.records == result.records
            served += 1
    chaos.disable()
    assert served > 0  # the cache still worked through the noise
    stats = cache.stats()
    assert stats["errors"] > 0 or stats["store_errors"] > 0  # faults landed
    for entry in (tmp_path / "store").rglob("*.json"):
        if entry.name == "index.json" or "quarantine" in entry.parts:
            continue
        # every surviving live entry verifies and parses
        json.loads(store.read_payload(entry.read_bytes()))
    assert not list((tmp_path / "store").rglob("*.tmp"))


def test_parallel_campaign_identical_under_chaos():
    """The full fault mix may slow a parallel campaign down, never change it."""
    from repro.apps.registry import get_factory
    from repro.nvct.campaign import CampaignConfig, run_campaign

    cfg = CampaignConfig(n_tests=10, seed=5)
    chaos.disable()
    baseline = run_campaign(get_factory("EP"), cfg, jobs=1)
    chaos.enable(3, 0.2)
    noisy = run_campaign(get_factory("EP"), cfg, jobs=2, chunk_timeout=2.0)
    chaos.disable()
    assert noisy.records == baseline.records


def test_slow_io_sleeps_and_counts(monkeypatch):
    ch = ChaosInjector(2, 1.0, kinds=["slow_io"])
    naps: list[float] = []
    monkeypatch.setattr(chaos.time, "sleep", naps.append)
    ch.maybe_sleep("cache.read")
    assert naps == [chaos.SLOW_IO_SECONDS]
    assert ch.injected["slow_io"] == 1
    # a zero rate never fires
    ChaosInjector(2, 0.0).maybe_sleep("cache.read")
    assert naps == [chaos.SLOW_IO_SECONDS]


def test_os_error_read_is_transient_and_never_quarantines(tmp_path):
    """An injected I/O error on read is a counted miss; the entry itself
    is intact and MUST stay in place (quarantine is for bad bytes only)."""
    from repro.apps.registry import get_factory
    from repro.harness.cache import ArtifactCache, campaign_key
    from repro.nvct.campaign import CampaignConfig, run_campaign

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=3, seed=6)
    result = run_campaign(factory, cfg)
    key = campaign_key(factory, cfg)
    cache = ArtifactCache(tmp_path / "store")
    cache.put_campaign(key, result)
    chaos.enable(1, 1.0, kinds=["os_error"])
    assert cache.get_campaign(key) is None  # transient failure -> miss
    chaos.disable()
    stats = cache.stats()
    assert stats["errors"] == 1 and stats["misses"] == 1
    assert stats["quarantined"] == 0
    assert not (tmp_path / "store" / "quarantine").exists()
    assert cache.get_campaign(key) is not None  # entry survived untouched


def test_os_error_write_abandons_store_cleanly(tmp_path, monkeypatch):
    from repro.apps.registry import get_factory
    from repro.harness.cache import ArtifactCache, campaign_key
    from repro.nvct.campaign import CampaignConfig, run_campaign

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=3, seed=6)
    result = run_campaign(factory, cfg)
    cache = ArtifactCache(tmp_path / "store")
    chaos.enable(1, 1.0, kinds=["os_error"])
    cache.put_campaign(campaign_key(factory, cfg), result)
    chaos.disable()
    assert cache.stats()["store_errors"] == 1
    assert not list((tmp_path / "store").rglob("*.tmp"))  # temp unlinked
    assert not list((tmp_path / "store").rglob("*.json"))  # nothing published

    # the same holds when the one atomic writer itself fails at publish time
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(store.os, "replace", refuse)
    cache.put_campaign(campaign_key(factory, cfg), result)
    assert cache.stats()["store_errors"] == 2 and cache.stats()["stores"] == 0
    assert not list((tmp_path / "store").rglob("*.tmp"))
    assert not list((tmp_path / "store").rglob("*.json"))


def test_torn_writeback_helper():
    ch = ChaosInjector(11, 1.0, kinds=["torn_writeback"])
    data = bytes(range(256))
    torn = ch.torn_writeback("site", data)
    assert len(torn) == len(data)
    assert torn != data
    # Damage is confined to the zeroed suffix of exactly one 64-byte line.
    diffs = [i for i in range(len(data)) if torn[i] != data[i]]
    lines = {i // 64 for i in diffs}
    assert len(lines) == 1
    line = lines.pop()
    lo, hi = line * 64, min(line * 64 + 64, len(data))
    cut = min(diffs)
    assert (cut - lo) % 8 == 0  # granularity-aligned tear point
    assert torn[cut:hi] == b"\x00" * (hi - cut)
    assert torn[:cut] == data[:cut] and torn[hi:] == data[hi:]
    # Deterministic: same injector state tears identically.
    assert ChaosInjector(11, 1.0).torn_writeback("site", data) == torn
    assert ch.injected["torn_writeback"] >= 1


def test_torn_writeback_caught_by_snapshot_crc():
    import numpy as np

    from repro.errors import SnapshotCorruptError
    from repro.nvct.serialize import _pack_array, _unpack_array

    packed = _pack_array(np.arange(64, dtype=np.float64) + 1.0)
    ch = ChaosInjector(23, 1.0, kinds=["torn_writeback"])
    packed["data"] = ch.torn_writeback("site", packed["data"])
    with pytest.raises(SnapshotCorruptError, match="checksum"):
        _unpack_array(packed)
