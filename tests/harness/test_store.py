"""Integrity store: envelopes, strict readers, quarantine, quota GC, doctor.

The acceptance property for this layer is at the bottom: a campaign over
a deliberately corrupted artifact store (flipped bytes in cached entries
plus a bit-rotted journal record) completes **bit-identical** to a run
over a clean store, with every damaged record quarantined — never
deleted — and the ``store.crc_failures`` / ``store.quarantined``
counters matching the injected fault count exactly.
"""

import json
import os

import pytest

from repro.errors import SnapshotCorruptError
from repro.harness import chaos, store
from repro.harness.store import (
    GCReport,
    LRUIndex,
    atomic_write_bytes,
    collect_entries,
    crc32,
    fsck_cache,
    fsck_journal,
    open_json_doc,
    open_line,
    pack_record,
    parse_quota,
    preflight,
    quarantine_bytes,
    quarantine_file,
    read_payload,
    repair_cache,
    repair_journal,
    run_gc,
    seal_json_doc,
    seal_line,
    unpack_record,
)
from repro.obs import metrics


@pytest.fixture(autouse=True)
def _quiet_gates():
    """Leave the chaos and telemetry gates the way the environment set them."""
    yield
    chaos.reset()
    metrics.reset()


@pytest.fixture
def no_chaos():
    """Tests that count the faults they plant themselves cannot share the
    store with an ambient ``REPRO_CHAOS`` injector (``_quiet_gates``
    restores it afterwards)."""
    chaos.disable()


# -- record envelope -----------------------------------------------------------


def test_envelope_round_trip():
    payload = b"the quick brown fox" * 100
    record = pack_record(payload)
    assert store.is_enveloped(record)
    header, out = unpack_record(record)
    assert out == payload
    assert header["schema_version"] == store.STORE_SCHEMA_VERSION
    assert header["payload_crc32"] == crc32(payload)
    assert set(header) >= {"schema_version", "payload_crc32", "git_sha", "created_at"}


def test_flipped_payload_bit_fails_checksum_and_counts():
    record = bytearray(pack_record(b"x" * 256))
    record[-7] ^= 0x01  # damage deep in the payload, header untouched
    with metrics.enabled() as reg:
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            unpack_record(bytes(record))
        assert reg.counter("store.crc_failures").value == 1


def test_damaged_header_is_corrupt_not_a_crash():
    record = pack_record(b"payload")
    mangled = store.MAGIC + b'{"not json' + record[len(store.MAGIC):]
    with pytest.raises(SnapshotCorruptError):
        unpack_record(mangled)
    with pytest.raises(SnapshotCorruptError, match="unterminated"):
        unpack_record(store.MAGIC + b"x" * (store._HEADER_LIMIT + 10))


def test_unenveloped_payload_is_refused(no_chaos):
    bare = b'{"plain": "pre-envelope artifact"}'
    with pytest.raises(SnapshotCorruptError, match="magic"):
        read_payload(bare)


def test_foreign_schema_version_is_refused():
    record = pack_record(b"payload", schema_version=99)
    with pytest.raises(SnapshotCorruptError, match="foreign schema_version"):
        unpack_record(record)


def test_unenveloped_cache_entry_is_quarantined_and_recomputed(tmp_path, no_chaos):
    """A file without the envelope dropped into the cache is bad bytes
    like any other: a miss, moved to ``quarantine/``, and the recompute
    re-stores an enveloped entry."""
    from repro.apps.registry import get_factory
    from repro.harness.cache import ArtifactCache, campaign_key
    from repro.nvct.campaign import CampaignConfig, run_campaign
    from repro.nvct.serialize import campaign_to_dict

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=3, seed=4)
    result = run_campaign(factory, cfg)
    key = campaign_key(factory, cfg)
    cache = ArtifactCache(tmp_path / "store")
    cache.put_campaign(key, result)
    (entry,) = (p for p in (tmp_path / "store" / "campaign").rglob("*.json"))
    bare = json.dumps(campaign_to_dict(result)).encode()
    entry.write_bytes(bare)

    assert cache.get_campaign(key) is None
    assert cache.stats()["quarantined"] == 1 and cache.stats()["misses"] == 1
    (evidence,) = (tmp_path / "store" / "quarantine").iterdir()
    assert evidence.read_bytes() == bare
    cache.put_campaign(key, result)  # the recompute's re-store
    assert store.is_enveloped(entry.read_bytes())
    assert cache.get_campaign(key).records == result.records


# -- JSON-document and JSONL-line envelopes ------------------------------------


def test_json_doc_envelope_round_trip_and_tamper():
    payload = [{"metric": "x", "value": 1.5}]
    doc = seal_json_doc(payload)
    assert open_json_doc(doc) == payload
    # the file stays plain JSON: re-serialization/pretty-printing is fine
    assert open_json_doc(json.loads(json.dumps(doc, indent=2))) == payload
    tampered = json.loads(json.dumps(doc))
    tampered["payload"][0]["value"] = 2.5
    with pytest.raises(SnapshotCorruptError, match="checksum"):
        open_json_doc(tampered)


def test_json_doc_without_envelope_is_refused():
    for bare in ([{"metric": "x"}], {"payload": [{"metric": "x"}]}):
        with pytest.raises(SnapshotCorruptError, match="envelope"):
            open_json_doc(bare)


def test_line_envelope_round_trip_tamper_and_legacy():
    doc = {"kind": "trial", "index": 3, "record": {"counter": 120}}
    sealed = seal_line(doc)
    assert "crc" in sealed and open_line(sealed) == doc
    rotted = dict(sealed)
    rotted["index"] = 4  # bit-rot that still parses as JSON
    with pytest.raises(SnapshotCorruptError):
        open_line(rotted)
    with pytest.raises(SnapshotCorruptError):
        open_line(doc)  # legacy line: no crc, nothing to verify


# -- quarantine ----------------------------------------------------------------


def test_quarantine_moves_never_deletes(tmp_path):
    entry = tmp_path / "campaign" / "ab" / "abc.json"
    entry.parent.mkdir(parents=True)
    entry.write_bytes(b"damaged")
    with metrics.enabled() as reg:
        target = quarantine_file(entry, tmp_path)
        assert reg.counter("store.quarantined").value == 1
    assert target == tmp_path / "quarantine" / "campaign.ab.abc.json"
    assert not entry.exists() and target.read_bytes() == b"damaged"
    # collisions get a numeric suffix instead of clobbering evidence
    entry.parent.mkdir(parents=True, exist_ok=True)
    entry.write_bytes(b"damaged again")
    second = quarantine_file(entry, tmp_path)
    assert second != target and second.read_bytes() == b"damaged again"


def test_quarantine_bytes_preserves_a_torn_tail(tmp_path):
    target = quarantine_bytes(b'{"torn', tmp_path, "journal.jsonl.tail")
    assert target == tmp_path / "quarantine" / "journal.jsonl.tail"
    assert target.read_bytes() == b'{"torn'


# -- disk governance -----------------------------------------------------------


def test_parse_quota():
    assert parse_quota(None) is None
    assert parse_quota("") is None
    assert parse_quota("garbage") is None
    assert parse_quota(0) is None
    assert parse_quota(-5) is None
    assert parse_quota(65536) == 65536
    assert parse_quota("65536") == 65536
    assert parse_quota("4k") == 4 << 10
    assert parse_quota("500M") == 500 << 20
    assert parse_quota("2g") == 2 << 30
    assert parse_quota("1.5k") == 1536


def test_lru_index_orders_ticks_and_survives_reload(tmp_path):
    index = LRUIndex(tmp_path)
    index.touch("a")
    index.touch("b")
    index.touch("a")  # a is now more recent than b
    assert index.atime("b") < index.atime("a")
    reloaded = LRUIndex(tmp_path)
    assert reloaded.atime("a") == index.atime("a")
    assert reloaded.atime("unknown") == 0


def test_run_gc_evicts_lru_first_and_respects_quota(tmp_path):
    index = LRUIndex(tmp_path)
    for name in ("old", "mid", "new"):
        atomic_write_bytes(tmp_path / "kind" / name, b"x" * 1000)
        index.touch(f"kind/{name}")
    # quarantined bytes never count against the quota, never get evicted
    quarantine_bytes(b"y" * 5000, tmp_path, "evidence")
    report = run_gc(tmp_path, quota=2200, index=index)
    assert report.evicted == ["kind/old"]
    assert report.total_after <= 2200
    assert report.bytes_freed == 1000
    assert not (tmp_path / "kind" / "old").exists()
    assert (tmp_path / "quarantine" / "evidence").exists()
    # already under quota: nothing to do
    assert run_gc(tmp_path, quota=2200, index=index).evicted == []


def test_cache_quota_eviction_end_to_end(tmp_path, monkeypatch, no_chaos):
    """Writing past REPRO_CACHE_QUOTA evicts in LRU order, post-GC <= quota."""
    from repro.apps.registry import get_factory
    from repro.harness.cache import ArtifactCache, campaign_key
    from repro.nvct.campaign import CampaignConfig, run_campaign

    factory = get_factory("EP")
    cfgs = [CampaignConfig(n_tests=3, seed=s) for s in (1, 2, 3)]
    results = [run_campaign(factory, cfg) for cfg in cfgs]
    keys = [campaign_key(factory, cfg) for cfg in cfgs]

    probe = ArtifactCache(tmp_path / "probe")
    probe.put_campaign(keys[0], results[0])
    entry_size = probe.disk_usage()

    quota = int(entry_size * 2.5)  # room for two entries, not three
    monkeypatch.setenv("REPRO_CACHE_QUOTA", str(quota))
    cache = ArtifactCache(tmp_path / "store")
    assert cache.quota == quota
    for key, result in zip(keys, results):
        cache.put_campaign(key, result)
    assert cache.disk_usage() <= quota
    assert cache.evictions >= 1
    # LRU order: the first (least recently touched) entry went first
    assert cache.get_campaign(keys[0]) is None
    assert cache.get_campaign(keys[2]) is not None


# -- doctor: fsck and repair ---------------------------------------------------


def _populate_cache_root(root):
    """A cache root with one of every verdict; returns {verdict: path}."""
    paths = {}
    ok = root / "campaign" / "aa" / "ok.json"
    atomic_write_bytes(ok, pack_record(b'{"fine": true}'))
    paths["ok"] = ok
    corrupt = root / "campaign" / "cc" / "corrupt.json"
    damaged = bytearray(pack_record(b'{"fine": false}'))
    damaged[-3] ^= 0xFF
    atomic_write_bytes(corrupt, bytes(damaged))
    paths["corrupt"] = corrupt
    foreign = root / "campaign" / "dd" / "foreign.json"
    atomic_write_bytes(foreign, pack_record(b'{"future": 1}', schema_version=42))
    paths["foreign-version"] = foreign
    tmp = root / "campaign" / "ee" / "orphan.tmp"
    atomic_write_bytes(tmp, b"half-written")
    os.rename(tmp, tmp)  # keep the .tmp name (atomic_write_bytes wrote it whole)
    paths["orphaned-tmp"] = tmp
    return paths


def test_fsck_cache_classifies_every_verdict(tmp_path):
    paths = _populate_cache_root(tmp_path)
    verdicts = {v.path: v.verdict for v in fsck_cache(tmp_path)}
    assert verdicts == {path: verdict for verdict, path in paths.items()}
    assert set(paths) == set(store.VERDICTS)


def test_repair_cache_quarantines_bad_and_rebuilds_index(tmp_path):
    paths = _populate_cache_root(tmp_path)
    bare = tmp_path / "campaign" / "bb" / "bare.json"
    atomic_write_bytes(bare, b'{"bare": "no envelope"}')
    assert {v.verdict for v in fsck_cache(tmp_path) if v.path == bare} == {"corrupt"}
    moved = repair_cache(tmp_path)
    assert len(moved) == 4  # corrupt + un-enveloped + foreign-version + orphaned-tmp
    assert all(target.exists() for target in moved)
    assert paths["ok"].exists()
    assert not paths["corrupt"].exists() and not bare.exists()
    remaining = {v.verdict for v in fsck_cache(tmp_path)}
    assert remaining == {"ok"}
    index = LRUIndex(tmp_path)
    assert index.atime("campaign/aa/ok.json") > 0


def test_fsck_journal_flags_rotted_tail(tmp_path):
    from repro.nvct.journal import CampaignJournal

    path = tmp_path / "j.jsonl"
    journal = CampaignJournal.create(path, {"kind": "header", "key": "k"})
    journal._write_line({"kind": "trial", "index": 0, "record": {}})
    journal.close()
    verdicts, valid = fsck_journal(path)
    assert [v.verdict for v in verdicts] == ["ok"]
    assert valid == path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "trial", "ind')  # torn in-flight append
    verdicts, valid2 = fsck_journal(path)
    assert [v.verdict for v in verdicts] == ["ok", "corrupt"]
    assert valid2 == valid
    target = repair_journal(path)
    assert target is not None and target.parent.name == "quarantine"
    assert path.stat().st_size == valid
    assert fsck_journal(path)[0][0].verdict == "ok"


def test_preflight_reports_environment(tmp_path):
    journal = tmp_path / "j.jsonl"
    journal.write_text("{}\n")
    checks = {c.name: c for c in preflight(cache_dir=tmp_path / "cache",
                                           journals=[journal],
                                           min_free_bytes=1)}
    assert checks["python"].ok
    assert checks["numpy"].ok
    assert checks["cache-dir"].ok
    assert checks["free-disk"].ok
    assert checks["journal:j.jsonl"].ok
    missing = {c.name: c for c in preflight(journals=[tmp_path / "absent.jsonl"])}
    assert missing["journal:absent.jsonl"].ok  # will be created
    assert "will be created" in missing["journal:absent.jsonl"].detail


# -- chaos kinds at the store site ---------------------------------------------


def test_chaos_bitflip_is_deterministic_single_bit():
    ch = chaos.ChaosInjector(seed=5, rate=1.0, kinds=["bitflip"])
    data = bytes(range(256))
    flipped = ch.bitflip("store.read", data)
    assert flipped != data and len(flipped) == len(data)
    diff = [(a ^ b) for a, b in zip(data, flipped) if a != b]
    assert len(diff) == 1 and bin(diff[0]).count("1") == 1
    replay = chaos.ChaosInjector(seed=5, rate=1.0, kinds=["bitflip"])
    assert replay.bitflip("store.read", data) == flipped


def test_chaos_bitflip_at_store_read_is_caught_and_healed():
    chaos.enable(5, 1.0, kinds=["bitflip"])
    with pytest.raises(SnapshotCorruptError):
        read_payload(pack_record(b"z" * 128))
    chaos.disable()


def test_chaos_stale_version_fires_at_store_read():
    chaos.enable(5, 1.0, kinds=["stale_version"])
    with pytest.raises(SnapshotCorruptError, match="stale"):
        read_payload(pack_record(b"z" * 128))
    chaos.disable()


def test_cache_survives_store_read_chaos(tmp_path):
    """bitflip + stale_version at the store site: reads degrade to counted
    misses with quarantine, never exceptions, and rewrites self-heal."""
    from repro.apps.registry import get_factory
    from repro.harness.cache import ArtifactCache, campaign_key
    from repro.nvct.campaign import CampaignConfig, run_campaign

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=3, seed=2)
    result = run_campaign(factory, cfg)
    key = campaign_key(factory, cfg)
    cache = ArtifactCache(tmp_path / "store")
    chaos.enable(11, 0.4, kinds=["bitflip", "stale_version"])
    served = 0
    for _ in range(20):
        got = cache.get_campaign(key)
        if got is None:
            cache.put_campaign(key, result)
        else:
            assert got.records == result.records
            served += 1
    injected = sum(chaos.injector().injected.values())
    chaos.disable()
    assert served > 0 and injected > 0
    assert cache.stats()["errors"] > 0


# -- the acceptance property ---------------------------------------------------


def _canon_campaign(result) -> str:
    from repro.nvct.serialize import campaign_to_dict

    return json.dumps(campaign_to_dict(result), sort_keys=True)


def test_corrupted_store_campaign_is_bit_identical_to_clean_run(tmp_path, no_chaos):
    """Flip bytes in 3 cached campaign entries and bit-rot the journal's
    tail record; the re-run must produce reports bit-identical to the
    clean-store run, quarantine (not delete) every damaged record, and
    count exactly the injected faults."""
    from repro.apps.registry import get_factory
    from repro.harness.cache import ArtifactCache, campaign_key
    from repro.nvct.campaign import CampaignConfig, run_campaign

    factory = get_factory("EP")
    cfgs = [CampaignConfig(n_tests=3, seed=s) for s in (1, 2, 3)]
    keys = [campaign_key(factory, cfg) for cfg in cfgs]

    # clean-store pass: compute and cache three campaigns + one journaled run
    cache = ArtifactCache(tmp_path / "store")
    clean = []
    for key, cfg in zip(keys, cfgs):
        result = run_campaign(factory, cfg)
        cache.put_campaign(key, result)
        clean.append(_canon_campaign(result))
    jdir = tmp_path / "journals"
    jpath = jdir / "campaign.jsonl"
    jcfg = CampaignConfig(n_tests=5, seed=9)
    clean_journaled = _canon_campaign(run_campaign(factory, jcfg, journal=jpath))

    # inject the damage: one flipped payload byte per cached entry...
    entries = sorted(p for p in (tmp_path / "store").rglob("*.json")
                     if p.name != "index.json")
    assert len(entries) == 3
    for entry in entries:
        data = bytearray(entry.read_bytes())
        data[-10] ^= 0x01
        entry.write_bytes(bytes(data))
    # ...and silent bit-rot in the journal's last trial record (still
    # valid JSON, so only the line CRC can catch it)
    lines = jpath.read_bytes().splitlines(keepends=True)
    rotted = json.loads(lines[-1])
    rotted["record"]["counter"] += 1  # the crc field is now stale
    lines[-1] = json.dumps(rotted, sort_keys=True).encode() + b"\n"
    jpath.write_bytes(b"".join(lines))

    # recovery pass, with telemetry observing the healing
    with metrics.enabled() as reg:
        cache2 = ArtifactCache(tmp_path / "store")
        recovered = []
        for key, cfg in zip(keys, cfgs):
            got = cache2.get_campaign(key)
            if got is None:  # self-heal: recompute and re-store
                got = run_campaign(factory, cfg)
                cache2.put_campaign(key, got)
            recovered.append(_canon_campaign(got))
        resumed = _canon_campaign(run_campaign(factory, jcfg, journal=jpath))
        assert reg.counter("store.crc_failures").value == 4
        assert reg.counter("store.quarantined").value == 4

    # bit-identical to the clean-store run
    assert recovered == clean
    assert resumed == clean_journaled
    assert cache2.stats()["quarantined"] == 3
    assert cache2.stats()["errors"] == 3

    # every damaged record is quarantined, not deleted
    cache_q = sorted((tmp_path / "store" / "quarantine").iterdir())
    assert len(cache_q) == 3
    journal_q = sorted((jdir / "quarantine").iterdir())
    assert len(journal_q) == 1 and journal_q[0].name.startswith("campaign.jsonl.tail")
    # and the healed store now verifies clean
    assert all(not v.bad for v in fsck_cache(tmp_path / "store"))
    assert all(v.verdict == "ok" for v in fsck_journal(jpath)[0])
