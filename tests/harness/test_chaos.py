"""Chaos fault injector: determinism, gating, and end-to-end soaks."""

import ast
import json
from pathlib import Path

import pytest

from repro.errors import UsageError
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
    # An unusable spec fails loudly instead of silently turning chaos off.
    for bad in ("nope", "1", "a:b", "1:2.0", "1:0.5:badkind"):
        monkeypatch.setenv(chaos.ENV_VAR, bad)
        chaos.reset()
        with pytest.raises(UsageError, match="known kinds: corrupt_read") as excinfo:
            chaos.injector()
        assert repr(bad) in str(excinfo.value)


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
    assert not any(never.fires("s", "bitflip") for _ in range(20))
    assert all(always.fires("s", "bitflip") for _ in range(20))
    filtered = ChaosInjector(1, 1.0, kinds=["slow_io"])
    assert not filtered.fires("s", "bitflip")
    assert filtered.fires("s", "slow_io")
    with pytest.raises(ValueError):
        ChaosInjector(1, 2.0)
    with pytest.raises(ValueError):
        ChaosInjector(1, 0.5, kinds=["martian"])


def test_fault_helpers():
    ch = ChaosInjector(5, 1.0, kinds=["os_error", "corrupt_read", "bitflip"])
    with pytest.raises(InjectedFault):
        ch.check_io("site")
    data = bytes(range(64))
    damaged = ch.corrupt("site", data)
    assert damaged != data and len(damaged) == len(data)
    # deterministic damage: same injector state ⇒ same corruption
    assert ChaosInjector(5, 1.0).corrupt("site", data) == damaged
    flipped = ch.bitflip("site", data)
    assert len(flipped) == len(data)
    assert sum(bin(a ^ b).count("1") for a, b in zip(flipped, data)) == 1
    assert ch.injected["os_error"] == 1
    assert ch.injected["corrupt_read"] == 1


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
    noisy = run_campaign(get_factory("EP"), cfg, jobs=2)
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


def test_torn_line_caught_by_snapshot_crc():
    """A write torn inside one 64-byte line (an 8-byte-aligned suffix of
    the line zeroed, length kept) must fail the snapshot array's CRC."""
    import numpy as np

    from repro.errors import SnapshotCorruptError
    from repro.nvct.serialize import _pack_array, _unpack_array

    packed = _pack_array(np.arange(64, dtype=np.float64) + 1.0)
    data = packed["data"]
    lo, cut = 3 * 64, 3 * 64 + 24
    packed["data"] = data[:cut] + b"\x00" * (lo + 64 - cut) + data[lo + 64 :]
    assert len(packed["data"]) == len(data) and packed["data"] != data
    with pytest.raises(SnapshotCorruptError, match="checksum"):
        _unpack_array(packed)


def _fires_kinds(tree):
    """The kind of every ``….fires(site, "<kind>")`` call in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fires"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value


def test_every_fault_kind_has_a_production_site():
    """Each kind in ``FAULT_KINDS`` is injected by some production module
    other than ``chaos.py`` — through its helper or a direct ``fires`` —
    so a kind whose last injection site goes away cannot linger.  A
    helper call must match the helper's arity, so an unrelated method of
    the same name (``fh.truncate(n)``) does not count."""
    chaos_path = Path(chaos.__file__)
    helpers: dict[str, set[tuple[str, int]]] = {}
    injector_cls = next(
        n
        for n in ast.parse(chaos_path.read_text()).body
        if isinstance(n, ast.ClassDef) and n.name == "ChaosInjector"
    )
    for method in injector_cls.body:
        if isinstance(method, ast.FunctionDef) and method.name != "fires":
            params = len(method.args.args) - 1  # drop self
            required = params - len(method.args.defaults)
            for kind in _fires_kinds(method):
                helpers.setdefault(kind, set()).update(
                    (method.name, n) for n in range(required, params + 1)
                )

    called: set[tuple[str, int]] = set()
    fired: set[str] = set()
    for path in chaos_path.parents[1].rglob("*.py"):
        if path == chaos_path:
            continue
        tree = ast.parse(path.read_text())
        fired.update(_fires_kinds(tree))
        called.update(
            (n.func.attr, len(n.args))
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        )
    orphans = [
        kind
        for kind in chaos.FAULT_KINDS
        if kind not in fired and not helpers.get(kind, set()) & called
    ]
    assert orphans == []
