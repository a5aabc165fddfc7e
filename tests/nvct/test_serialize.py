"""Campaign serialization round-trip."""

import json

import pytest

from repro.core.selection import select_critical_objects
from repro.errors import SnapshotCorruptError
from repro.nvct.campaign import CampaignConfig, CrashTestRecord, Response, run_campaign
from repro.nvct.plan import PersistencePlan
from repro.nvct.serialize import (
    load_campaign,
    pack_snapshot,
    record_from_dict,
    record_to_dict,
    save_campaign,
    unpack_snapshot,
)
from tests.nvct.test_campaign import factory


@pytest.fixture(scope="module")
def campaign():
    plan = PersistencePlan.per_region(["acc"], {"R2": 2}, at_iteration_end=True)
    return run_campaign(factory(), CampaignConfig(n_tests=15, seed=8, plan=plan))


def test_roundtrip_records(tmp_path, campaign):
    path = save_campaign(campaign, tmp_path / "camp.json")
    loaded = load_campaign(path)
    assert loaded.app == campaign.app
    assert loaded.golden_iterations == campaign.golden_iterations
    assert len(loaded.records) == len(campaign.records)
    for a, b in zip(loaded.records, campaign.records):
        assert (a.counter, a.iteration, a.region, a.response) == (
            b.counter, b.iteration, b.region, b.response
        )
        assert a.rates == pytest.approx(b.rates)


def test_roundtrip_plan(tmp_path, campaign):
    loaded = load_campaign(save_campaign(campaign, tmp_path / "c.json"))
    assert loaded.plan == campaign.plan


def test_roundtrip_metrics_agree(tmp_path, campaign):
    loaded = load_campaign(save_campaign(campaign, tmp_path / "c.json"))
    assert loaded.recomputability() == campaign.recomputability()
    assert loaded.region_time_shares() == pytest.approx(campaign.region_time_shares())
    assert loaded.run_stats.memory.nvm_writes == campaign.run_stats.memory.nvm_writes
    assert loaded.run_stats.persist_op_count == campaign.run_stats.persist_op_count


def test_loaded_campaign_feeds_selection(tmp_path, campaign):
    loaded = load_campaign(save_campaign(campaign, tmp_path / "c.json"))
    sel_orig = select_critical_objects(campaign)
    sel_loaded = select_critical_objects(loaded)
    assert sel_orig.critical == sel_loaded.critical


def test_bad_format_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": 999}')
    with pytest.raises(ValueError):
        load_campaign(p)
    # ...but a wrong format version is NOT corruption
    with pytest.raises(ValueError) as exc:
        load_campaign(p)
    assert not isinstance(exc.value, SnapshotCorruptError)


def test_truncated_file_raises_typed_corruption_error(tmp_path, campaign):
    path = save_campaign(campaign, tmp_path / "c.json")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # torn mid-write
    with pytest.raises(SnapshotCorruptError):
        load_campaign(path)


def test_garbage_file_raises_typed_corruption_error(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_bytes(b"\x00\xffnot json at all")
    with pytest.raises(SnapshotCorruptError):
        load_campaign(garbage)
    # parseable JSON with the wrong shape is corruption too
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"format": 1, "app": "EP"}))
    with pytest.raises(SnapshotCorruptError):
        load_campaign(missing)


def test_corruption_error_is_still_a_value_error(tmp_path):
    """Legacy `except ValueError` corruption handling keeps working."""
    garbage = tmp_path / "g.json"
    garbage.write_text("{ nope")
    with pytest.raises(ValueError):
        load_campaign(garbage)


def test_unpack_rejects_corrupt_payload():
    import numpy as np

    from repro.nvct.runtime import Snapshot

    snap = Snapshot(
        index=0, counter=7, iteration=1, region="R1",
        nvm_state={"a": np.arange(8, dtype=np.float64)}, rates={"a": 0.0},
        consistent_state=None,
    )
    payload = pack_snapshot(snap)
    assert unpack_snapshot(payload).counter == 7
    torn = dict(payload)
    torn["nvm_state"] = {
        k: {**v, "data": v["data"][: len(v["data"]) // 2 + 1]}
        for k, v in payload["nvm_state"].items()
    }
    with pytest.raises(SnapshotCorruptError):
        unpack_snapshot(torn)
    with pytest.raises(SnapshotCorruptError):
        unpack_snapshot({"index": 0})  # missing keys


def test_record_error_field_roundtrip():
    clean = CrashTestRecord(1, 2, "r", {"a": 0.5}, Response.S1)
    assert "error" not in record_to_dict(clean)
    assert record_from_dict(record_to_dict(clean)) == clean
    failed = CrashTestRecord(
        1, 2, "r", {"a": 0.5}, Response.FAILED, error="RuntimeError: boom"
    )
    assert record_to_dict(failed)["error"] == "RuntimeError: boom"
    assert record_from_dict(record_to_dict(failed)) == failed


def _random_snapshot(rng, index: int):
    from repro.nvct.runtime import Snapshot

    def array():
        dtype = rng.choice(["float64", "int32", "uint8"])
        shape = tuple(int(s) for s in rng.integers(1, 6, size=int(rng.integers(1, 3))))
        return rng.integers(0, 200, size=shape).astype(dtype)

    nvm = {f"obj{k}": array() for k in range(int(rng.integers(1, 4)))}
    consistent = (
        None if rng.random() < 0.5 else {k: v.copy() for k, v in nvm.items()}
    )
    return Snapshot(
        index=index,
        counter=int(rng.integers(0, 10**6)),
        iteration=int(rng.integers(0, 100)),
        region=f"R{int(rng.integers(0, 5))}",
        nvm_state=nvm,
        rates={"x": float(rng.random()), "y": float(rng.random())},
        consistent_state=consistent,
    )


def test_snapshot_pack_roundtrip_randomized_property():
    """Seeded property-style sweep: random dtypes/shapes/metadata all
    round-trip bit-exactly through pack/unpack (CRC-verified)."""
    import numpy as np

    rng = np.random.default_rng(20260806)
    for trial in range(30):
        snap = _random_snapshot(rng, trial)
        out = unpack_snapshot(pack_snapshot(snap))
        assert (out.index, out.counter, out.iteration, out.region) == (
            snap.index, snap.counter, snap.iteration, snap.region
        )
        assert out.rates == snap.rates
        assert set(out.nvm_state) == set(snap.nvm_state)
        for name, arr in snap.nvm_state.items():
            got = out.nvm_state[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape
            assert (got == arr).all()
        if snap.consistent_state is None:
            assert out.consistent_state is None
        else:
            for name, arr in snap.consistent_state.items():
                assert (out.consistent_state[name] == arr).all()


def test_packed_array_crc_detects_silent_corruption():
    import numpy as np

    rng = np.random.default_rng(7)
    packed = pack_snapshot(_random_snapshot(rng, 0))
    name = sorted(packed["nvm_state"])[0]
    entry = packed["nvm_state"][name]
    data = bytearray(entry["data"])
    data[0] ^= 0x01  # shape/dtype still valid: only the CRC can catch this
    entry["data"] = bytes(data)
    with pytest.raises(SnapshotCorruptError, match="checksum"):
        unpack_snapshot(packed)


def test_torn_line_caught_by_snapshot_crc():
    """A write torn inside one 64-byte line (an 8-byte-aligned suffix of
    the line zeroed, length kept) must fail the snapshot array's CRC."""
    import numpy as np

    from repro.nvct.serialize import _pack_array, _unpack_array

    packed = _pack_array(np.arange(64, dtype=np.float64) + 1.0)
    data = packed["data"]
    lo, cut = 3 * 64, 3 * 64 + 24
    packed["data"] = data[:cut] + b"\x00" * (lo + 64 - cut) + data[lo + 64 :]
    assert len(packed["data"]) == len(data) and packed["data"] != data
    with pytest.raises(SnapshotCorruptError, match="checksum"):
        _unpack_array(packed)


def test_packed_array_without_crc_is_refused():
    import numpy as np

    from repro.nvct.serialize import _pack_array, _unpack_array

    entry = _pack_array(np.arange(16.0))
    entry.pop("crc32")
    with pytest.raises(SnapshotCorruptError, match="checksum"):
        _unpack_array(entry)
