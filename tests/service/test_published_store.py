"""The published golden store: ``GoldenStore.publish`` then
``GoldenStore.open`` gives back exactly the recorded store under every
crash model, verified mode and two cores, and refuses a damaged, truncated
or foreign file with a typed error instead of classifying from it."""

import pytest

from repro.apps.registry import get_factory
from repro.errors import SnapshotCorruptError
from repro.harness.cache import campaign_key
from repro.harness.store import MAGIC, open_head
from repro.memsim.golden import GoldenStore
from repro.nvct.campaign import CampaignConfig, PreparedShard, plan_shards

CONFIGS = {
    "whole-cache-loss": {},
    "adr": {"crash_model": "adr"},
    "eadr": {"crash_model": "eadr"},
    "torn": {"crash_model": "torn"},
    "verified": {"verified_mode": True},
    "cores2": {"n_cores": 2},
}


def _published(tmp_path, app, config):
    """Record one campaign's store and publish it: ``(store, path, key)``."""
    factory = get_factory(app)
    cfg = CampaignConfig(n_tests=6, seed=4, **CONFIGS[config])
    (plan,), _ = plan_shards(factory, cfg)
    store = PreparedShard.record(factory, plan).store
    key = campaign_key(factory, cfg)
    return store, store.publish(tmp_path / "s.store", key=key, node=0), key


def _array_table(raw: bytes) -> tuple[list[dict], int]:
    """The file's array table and the offset its array section starts at."""
    header, offset = open_head(raw, "golden-store")
    return header["arrays"], -(-offset // 64) * 64


def _same_state(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return list(a) == list(b) and all(
        a[n].dtype == b[n].dtype and a[n].shape == b[n].shape and a[n].tobytes() == b[n].tobytes()
        for n in a
    )


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("app", ["EP", "IS", "kmeans"])
def test_published_store_round_trips_exactly(tmp_path, app, config):
    store, path, key = _published(tmp_path, app, config)
    opened = GoldenStore.open(path, key=key, node=0)
    assert opened.n_images == store.n_images > 0
    assert opened.counters() == store.counters()
    assert opened.image_signatures() == store.image_signatures()
    for mine, theirs in zip(store.snapshots(), opened.snapshots(), strict=True):
        assert (theirs.index, theirs.counter, theirs.iteration, theirs.region, theirs.rates) == (
            mine.index, mine.counter, mine.iteration, mine.region, mine.rates
        )
        assert _same_state(mine.nvm_state, theirs.nvm_state)
        assert _same_state(mine.consistent_state, theirs.consistent_state)
        assert not any(a.flags.writeable for a in theirs.nvm_state.values())
    assert (store._extras is None) == (opened._extras is None)


@pytest.mark.parametrize("config", ["eadr", "verified"])
def test_a_flipped_array_byte_is_refused_naming_the_array(tmp_path, config):
    store, path, key = _published(tmp_path, "EP", config)
    pristine = path.read_bytes()
    table, data = _array_table(pristine)
    kinds = {entry["kind"] for entry in table}
    assert {"base", "idx", "vals", "bounds"} <= kinds
    assert ("overlay_vals" if config == "eadr" else "consistent") in kinds
    for entry in table:
        if not entry["length"]:
            continue
        damaged = bytearray(pristine)
        damaged[data + entry["offset"] + entry["length"] // 2] ^= 0x40
        path.write_bytes(damaged)
        with pytest.raises(SnapshotCorruptError, match="checksum") as err:
            GoldenStore.open(path, key=key, node=0)
        assert f"{entry['kind']} array of {entry['obj']!r}" in str(err.value)


def test_damaged_header_truncation_and_foreign_files_are_refused(tmp_path):
    store, path, key = _published(tmp_path, "EP", "whole-cache-loss")
    pristine = path.read_bytes()
    damaged = bytearray(pristine)
    damaged[len(MAGIC) + 10] ^= 0x01
    path.write_bytes(damaged)
    with pytest.raises(SnapshotCorruptError, match="header"):
        GoldenStore.open(path, key=key, node=0)
    path.write_bytes(pristine[:-1])
    with pytest.raises(SnapshotCorruptError, match="truncated"):
        GoldenStore.open(path, key=key, node=0)
    path.write_bytes(b"")
    with pytest.raises(SnapshotCorruptError, match="empty"):
        GoldenStore.open(path, key=key, node=0)
    path.write_bytes(pristine)
    with pytest.raises(SnapshotCorruptError, match="another campaign"):
        GoldenStore.open(path, key="0" * 64, node=0)
    with pytest.raises(SnapshotCorruptError, match="another campaign"):
        GoldenStore.open(path, key=key, node=1)
    with pytest.raises(SnapshotCorruptError, match="share the scheduler's filesystem"):
        GoldenStore.open(tmp_path / "missing.store", key=key, node=0)
    assert GoldenStore.open(path, key=key, node=0).n_images == store.n_images
