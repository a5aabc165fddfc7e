"""Integrity store: sealed files and lines, strict readers, quarantine, quota GC, doctor.

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
from repro.harness import store
from repro.harness.store import (
    GCReport,
    LRUIndex,
    atomic_write_bytes,
    collect_entries,
    crc32,
    fsck_cache,
    fsck_journal,
    open_head,
    open_line,
    parse_quota,
    preflight,
    quarantine_bytes,
    quarantine_file,
    repair_cache,
    repair_journal,
    run_gc,
    seal_head,
    seal_line,
)
from repro.obs import metrics
from repro.obs.export import load_bench, write_bench

#: A cache entry in the schema-1 layout: the magic, an *unsealed*
#: header line (nothing covers ``git_sha`` or ``created_at``), the payload.
OLD_LAYOUT_ENTRY = (
    b'%REPRO-STORE%{"created_at": "2026-10-01T12:00:00Z", "git_sha": "737d117", '
    b'"payload_crc32": 2339246701, "schema_version": 1}\n{"fine": true}'
)

#: A ``--stats`` document in the schema-1 layout: records under
#: ``payload`` beside an unsealed ``__repro_store__`` header.
OLD_LAYOUT_BENCH = (
    '{"__repro_store__": {"created_at": "2026-10-01T12:00:00Z", "git_sha": "737d117", '
    '"payload_crc32": 182675683, "schema_version": 1}, "payload": [{"git_sha": "737d117", '
    '"metric": "x", "scale": "t", "unit": "tests/s", "value": 1.0}]}'
)


@pytest.fixture(autouse=True)
def _quiet_gates():
    """Leave the telemetry gate the way the environment set it."""
    yield
    metrics.reset()


# -- the sealed file --------------------------------------------------------------


def _entry(payload: bytes) -> bytes:
    """``payload`` sealed the way the artifact cache seals an entry."""
    return seal_head(store.ENTRY_KIND, payload_crc32=crc32(payload), git_sha="abc1234",
                     created_at=store.created_at()) + payload


def _foreign(payload: bytes, version: int) -> bytes:
    """A validly sealed entry written under another ``schema_version``."""
    header = seal_line({"kind": store.ENTRY_KIND, "schema_version": version,
                        "payload_crc32": crc32(payload)})
    return store.MAGIC + json.dumps(header).encode() + b"\n" + payload


def _cached_ep_campaign(root):
    """An EP campaign stored in a cache at ``root``: ``(cache, key, result, entry)``."""
    from repro.apps.registry import get_factory
    from repro.harness.cache import ArtifactCache, campaign_key
    from repro.nvct.campaign import CampaignConfig, run_campaign

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=3, seed=4)
    result = run_campaign(factory, cfg)
    key = campaign_key(factory, cfg)
    cache = ArtifactCache(root)
    cache.put_campaign(key, result)
    (entry,) = root.rglob(f"{key}.json")
    return cache, key, result, entry


def test_envelope_round_trip():
    payload = b"the quick brown fox" * 100
    record = _entry(payload)
    header, offset = open_head(record, store.ENTRY_KIND)
    assert record[offset:] == payload
    assert header["schema_version"] == store.STORE_SCHEMA_VERSION
    assert header["payload_crc32"] == crc32(payload)
    assert set(header) == {"kind", "schema_version", "payload_crc32", "git_sha", "created_at"}
    with pytest.raises(SnapshotCorruptError, match="not a 'golden-store'"):
        open_head(record, "golden-store")  # the kind tells the files apart


def test_flipped_payload_bit_fails_checksum_and_counts():
    record = bytearray(_entry(b"x" * 256))
    record[-7] ^= 0x01  # damage deep in the payload, header untouched
    with metrics.enabled() as reg:
        with pytest.raises(SnapshotCorruptError, match="checksum"):
            open_head(bytes(record), store.ENTRY_KIND)
        assert reg.counter("store.crc_failures").value == 1


def test_damaged_header_is_corrupt_not_a_crash(tmp_path):
    record = _entry(b"payload")
    mangled = store.MAGIC + b'{"not json' + record[len(store.MAGIC):]
    with pytest.raises(SnapshotCorruptError):
        open_head(mangled, store.ENTRY_KIND)
    with pytest.raises(SnapshotCorruptError, match="unterminated"):
        open_head(store.MAGIC + b"x" * 5000, store.ENTRY_KIND)
    # One flipped byte inside the header's git_sha or created_at value
    # still parses as JSON: only the header's own CRC can catch it.
    cache, key, _, entry = _cached_ep_campaign(tmp_path / "store")
    pristine = entry.read_bytes()
    header, _ = open_head(pristine, store.ENTRY_KIND)
    for n, field in enumerate(("created_at", "git_sha"), start=1):
        damaged = bytearray(pristine)
        damaged[pristine.index(header[field].encode()) + 1] ^= 0x01
        entry.write_bytes(bytes(damaged))
        assert {v.path: v.verdict for v in fsck_cache(tmp_path / "store")} == {entry: "corrupt"}
        assert cache.get_campaign(key) is None
        assert cache.quarantined == n and not entry.exists()
        quarantined = sorted((tmp_path / "store" / "quarantine").iterdir())
        assert quarantined[-1].read_bytes() == bytes(damaged)


def test_unenveloped_payload_is_refused():
    bare = b'{"plain": "pre-envelope artifact"}'
    with pytest.raises(SnapshotCorruptError, match="magic"):
        open_head(bare, store.ENTRY_KIND)


def test_foreign_schema_version_is_refused():
    with pytest.raises(SnapshotCorruptError, match="foreign schema_version"):
        open_head(_foreign(b"payload", 99), store.ENTRY_KIND)


def test_unenveloped_cache_entry_is_quarantined_and_recomputed(tmp_path):
    """A file without the seal, or in the schema-1 layout, dropped into
    the cache is bad bytes like any other: ``corrupt`` to fsck, a miss,
    moved to ``quarantine/``, and the recompute re-stores a sealed entry."""
    from repro.nvct.serialize import campaign_to_dict

    cache, key, result, entry = _cached_ep_campaign(tmp_path / "store")
    bare = json.dumps(campaign_to_dict(result)).encode()
    for n, unsealed in enumerate((bare, OLD_LAYOUT_ENTRY), start=1):
        entry.write_bytes(unsealed)
        assert {v.path: v.verdict for v in fsck_cache(tmp_path / "store")} == {entry: "corrupt"}
        assert cache.get_campaign(key) is None
        assert cache.stats()["quarantined"] == n and cache.stats()["misses"] == n
        evidence = sorted((tmp_path / "store" / "quarantine").iterdir())
        assert evidence[-1].read_bytes() == unsealed
        cache.put_campaign(key, result)  # the recompute's re-store
        open_head(entry.read_bytes(), store.ENTRY_KIND)
        assert cache.get_campaign(key).records == result.records


# -- sealed JSON documents and lines ---------------------------------------------


def test_json_doc_envelope_round_trip_and_tamper(tmp_path):
    records = [{"metric": "x", "value": 1.5, "unit": "s", "scale": "t", "git_sha": "abc"}]
    path = write_bench(tmp_path / "bench.json", records)
    assert load_bench(path) == records
    # the file stays plain JSON: re-serialization/pretty-printing is fine
    path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
    assert load_bench(path) == records
    tampered = json.loads(path.read_text())
    tampered["records"][0]["value"] = 2.5
    path.write_text(json.dumps(tampered))
    with pytest.raises(SnapshotCorruptError, match="checksum"):
        load_bench(path)


def test_json_doc_without_envelope_is_refused(tmp_path):
    path = tmp_path / "bench.json"
    for unsealed in ('[{"metric": "x"}]', '{"records": [{"metric": "x"}]}', OLD_LAYOUT_BENCH, "7"):
        path.write_text(unsealed)
        with pytest.raises(SnapshotCorruptError, match="lacks its checksum"):
            load_bench(path)


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


def test_cache_quota_eviction_end_to_end(tmp_path, monkeypatch):
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
    atomic_write_bytes(ok, _entry(b'{"fine": true}'))
    paths["ok"] = ok
    corrupt = root / "campaign" / "cc" / "corrupt.json"
    damaged = bytearray(_entry(b'{"fine": false}'))
    damaged[-3] ^= 0xFF
    atomic_write_bytes(corrupt, bytes(damaged))
    paths["corrupt"] = corrupt
    foreign = root / "campaign" / "dd" / "foreign.json"
    atomic_write_bytes(foreign, _foreign(b'{"future": 1}', 42))
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


# -- damaged entries on disk ----------------------------------------------------


def test_cache_survives_on_disk_bitflips_and_foreign_versions(tmp_path):
    """Seeded single-bit flips in a stored entry's payload, and the entry
    rewritten under a really foreign ``schema_version``: every read
    degrades to a counted miss with quarantine, never an exception, and
    the rewrite heals the cache."""
    import random

    from repro.apps.registry import get_factory
    from repro.harness.cache import ArtifactCache, campaign_key
    from repro.nvct.campaign import CampaignConfig, run_campaign

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=3, seed=2)
    result = run_campaign(factory, cfg)
    key = campaign_key(factory, cfg)
    cache = ArtifactCache(tmp_path / "store")
    cache.put_campaign(key, result)
    (entry,) = (tmp_path / "store").rglob(f"{key}.json")
    rng = random.Random(11)
    for round_ in range(8):
        raw = entry.read_bytes()
        if round_ % 4 == 3:
            _, offset = open_head(raw, store.ENTRY_KIND)
            damaged = _foreign(raw[offset:], store.STORE_SCHEMA_VERSION + 1)
        else:
            body = raw.index(b"\n") + 1  # the CRC covers the payload
            bit = rng.randrange(body * 8, len(raw) * 8)
            damaged = bytearray(raw)
            damaged[bit // 8] ^= 1 << (bit % 8)
        entry.write_bytes(bytes(damaged))
        assert cache.get_campaign(key) is None
        cache.put_campaign(key, result)
        assert cache.get_campaign(key).records == result.records
    stats = cache.stats()
    assert stats["errors"] == stats["quarantined"] == 8
    assert len(list((tmp_path / "store" / "quarantine").iterdir())) == 8


# -- the acceptance property ---------------------------------------------------


def _canon_campaign(result) -> str:
    from repro.nvct.serialize import campaign_to_dict

    return json.dumps(campaign_to_dict(result), sort_keys=True)


def test_corrupted_store_campaign_is_bit_identical_to_clean_run(tmp_path):
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
