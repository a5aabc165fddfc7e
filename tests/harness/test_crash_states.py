"""Crash-state enumeration over every durable-write funnel.

One small scenario drives each funnel through the recording seam
(:mod:`tests.harness.recording_fs`): a journaled EP x6 campaign, a resume
over a torn tail, an artifact-cache put/get with one entry damaged on
disk, ``doctor fsck --repair`` on a rotted journal, and a served
campaign (lease journal + published golden store).  Every crash state of
the op log is then checked:

* an interrupted funnel call leaves its pre- or post-state, and a
  returned one survives every later crash (Silhouette's rule,
  :func:`~tests.harness.recording_fs.funnel_violations`);
* finishing the campaign from any state of its journal gives ``--save``
  bytes equal to a serial run, with each trial index journaled exactly
  once (WITCHER's output equivalence) — for the served campaign too,
  through a resumed scheduler;
* a cache read in any state returns a miss or the right result, and the
  published store is absent or whole;
* a lease journal never commits a chunk whose trials are not journaled.

The shard is recorded once; each journal state runs ``run_shard`` on a
plan whose ``journal`` points at it.  The planted bugs at the bottom
must each be reported.
"""

import inspect
import json
import textwrap
from dataclasses import replace

import pytest

from repro.apps.registry import get_factory
from repro.cli import main
from repro.harness import store
from repro.harness.cache import ArtifactCache, campaign_key
from repro.memsim.golden import GoldenStore
from repro.nvct import journal
from repro.nvct.campaign import CampaignConfig, PreparedShard, plan_shards, run_shard
from repro.nvct.journal import SealedJournal, scan_journal
from repro.nvct.serialize import campaign_to_dict, save_campaign
from tests.harness.recording_fs import FUNNELS, RecordingFS, crash_states, funnel_violations
from tests.nvct.test_execution_matrix import SCRIPTED_CHUNK, _serve_scripted

FACTORY = get_factory("EP")
CFG = CampaignConfig(n_tests=6, seed=1)
KEY = campaign_key(FACTORY, CFG)
JOURNAL = "campaign.jsonl"
SERVED = "served.jsonl"
CACHE = "cache"


def _journaled(shard, path):
    return replace(shard, plan=replace(shard.plan, journal=path))


def _save_bytes(result, path) -> bytes:
    return save_campaign(result, path).read_bytes()


def _trial_indices(raw: bytes) -> list[int]:
    _, lines, _ = scan_journal(raw)
    return sorted(doc["index"] for doc, _ in lines if doc.get("kind") == "trial")


@pytest.fixture(scope="module")
def shard():
    (plan,), _ = plan_shards(FACTORY, CFG)
    return PreparedShard.record(FACTORY, plan)


@pytest.fixture(scope="module")
def serial(shard):
    return run_shard(shard)


@pytest.fixture(scope="module")
def serial_save(serial, tmp_path_factory):
    return _save_bytes(serial, tmp_path_factory.mktemp("serial") / "save.json")


# -- the scenario -----------------------------------------------------------------


def _journaled_campaign(fs, root, shard, result):
    run_shard(_journaled(shard, root / JOURNAL))


def _resume_over_torn_tail(fs, root, shard, result):
    path = root / JOURNAL
    lines = path.read_bytes().splitlines(keepends=True)
    fs.inject(path, b"".join(lines[:4]) + lines[4][:40])  # header, 3 trials, a torn 4th
    run_shard(_journaled(shard, path))


def _cache_round_trip(fs, root, shard, result):
    cache = ArtifactCache(root / CACHE)
    cache.put_campaign(KEY, result)
    assert cache.get_campaign(KEY) is not None
    (entry,) = (p for p in (root / CACHE).rglob("*.json") if p.name != "index.json")
    damaged = bytearray(entry.read_bytes())
    damaged[-8] ^= 0x04
    fs.inject(entry, bytes(damaged))
    assert cache.get_campaign(KEY) is None and cache.quarantined == 1
    cache.put_campaign(KEY, result)
    assert cache.get_campaign(KEY) is not None


def _doctor_repair(fs, root, shard, result):
    lines = (root / JOURNAL).read_bytes().splitlines(keepends=True)
    rotted = root / "rotted.jsonl"
    fs.inject(rotted, b"".join(lines[:3]) + lines[3].replace(b'"crc": ', b'"crc": 1') + b"".join(lines[4:]))
    assert scan_journal(rotted.read_bytes())[2] == sum(map(len, lines[:3]))
    assert main(["doctor", "fsck", "--journal", str(rotted), "--repair"]) == 0


def _served_campaign(fs, root, shard, result):
    _serve_scripted(CFG, root / SERVED)


SCENARIO = (_journaled_campaign, _resume_over_torn_tail, _cache_round_trip, _doctor_repair, _served_campaign)


def _record(root, shard, result, segments=SCENARIO) -> RecordingFS:
    fs = RecordingFS(root)
    with fs.recording():
        for segment in segments:
            segment(fs, root, shard, result)
    return fs


@pytest.fixture(scope="module")
def recorded(shard, serial, tmp_path_factory):
    return _record(tmp_path_factory.mktemp("recorded"), shard, serial)


@pytest.fixture(scope="module")
def distinct(recorded):
    """Each distinct content, over every crash state, of the files the
    recovery oracles read, with the first state that shows it."""
    found: dict[str, dict] = {"journal": {}, "served": {}, "cache": {}, "store": {}}
    for st in crash_states(recorded.ops):
        cache = tuple(sorted((rel, st.read(rel)) for rel in st.entries if rel.startswith(CACHE + "/")))
        for kind, content in (
            ("journal", st.read(JOURNAL)),
            ("served", (st.read(SERVED), st.read(SERVED + ".leases"))),
            ("cache", cache),
            ("store", st.read(SERVED + ".store")),
        ):
            found[kind].setdefault(content, f"crash after op {st.k - 1}, {st.variant}")
    return found


# -- the oracles ------------------------------------------------------------------


def test_op_log_shows_every_funnel(recorded):
    assert {c.funnel for c in recorded.calls} == (FUNNELS - {"_check_writable"}) | {"inject"}


def test_every_crash_state_is_pre_or_post(recorded):
    assert funnel_violations(recorded) == []


def test_every_journal_state_finishes_to_the_serial_save(distinct, shard, serial_save, tmp_path):
    assert len(distinct["journal"]) > 10
    for n, (raw, where) in enumerate(distinct["journal"].items()):
        path = tmp_path / str(n) / JOURNAL
        path.parent.mkdir()
        if raw is not None:
            path.write_bytes(raw)
        result = run_shard(_journaled(shard, path))
        assert _save_bytes(result, path.parent / "save.json") == serial_save, where
        assert _trial_indices(path.read_bytes()) == list(range(CFG.n_tests)), where


def test_every_served_state_commits_only_journaled_trials(distinct, serial_save, tmp_path):
    """The scheduler resumes every state of its two journals to the serial
    save, and a commit event is never durable before its trials are."""
    assert len(distinct["served"]) > 10
    for n, ((raw, leases), where) in enumerate(distinct["served"].items()):
        done = set(_trial_indices(raw or b""))
        for doc, _ in scan_journal(leases or b"")[1]:
            if doc.get("event") == "commit":
                lo = doc["chunk"] * SCRIPTED_CHUNK
                chunk = set(range(lo, min(lo + SCRIPTED_CHUNK, CFG.n_tests)))
                assert chunk <= done, f"{where}: chunk {doc['chunk']} committed before its trials"
        path = tmp_path / str(n) / SERVED
        path.parent.mkdir()
        for suffix, content in (("", raw), (".leases", leases)):
            if content is not None:
                path.with_name(SERVED + suffix).write_bytes(content)
        served = _serve_scripted(CFG, path, resume=True)
        assert _save_bytes(served, path.parent / "save.json") == serial_save, where
        assert _trial_indices(path.read_bytes()) == list(range(CFG.n_tests)), where


def test_every_cache_state_reads_a_miss_or_the_right_result(distinct, serial, tmp_path):
    want = json.dumps(campaign_to_dict(serial), sort_keys=True)
    hits = 0
    for n, (files, where) in enumerate(distinct["cache"].items()):
        root = tmp_path / str(n)
        for rel, data in files:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(data)
        got = ArtifactCache(root / CACHE).get_campaign(KEY)
        if got is not None:
            hits += 1
            assert json.dumps(campaign_to_dict(got), sort_keys=True) == want, where
    assert hits > 0


def test_every_published_store_state_is_absent_or_whole(distinct, tmp_path):
    (whole,) = [raw for raw in distinct["store"] if raw is not None]
    path = tmp_path / "store"
    path.write_bytes(whole)
    assert GoldenStore.open(path, key=KEY, node=0).n_images == CFG.n_tests


def test_enumeration_is_deterministic(recorded):
    runs = [
        [(st.k, st.variant, tuple(sorted(st.applied.items()))) for st in crash_states(recorded.ops, seed=3)]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# -- planted bugs: each must be reported --------------------------------------------


def _mutant(monkeypatch, owner, module, name, edits):
    """Re-define ``owner.name`` from its own source with ``edits``
    (``(old, new)`` pairs) applied, in ``module``'s namespace."""
    fn = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert old in source, f"{name} no longer contains {old!r}"
        source = source.replace(old, new)
    scope: dict = {}
    exec(compile(source, f"<mutant {name}>", "exec"), vars(module), scope)
    monkeypatch.setattr(owner, name, scope[name])


def _reported(tmp_path, shard, serial, segments) -> list[str]:
    return funnel_violations(_record(tmp_path, shard, serial, segments))


def test_reports_atomic_write_without_file_fsync(monkeypatch, tmp_path, shard, serial):
    _mutant(monkeypatch, store, store, "atomic_write_bytes", [("            os.fsync(fh.fileno())\n", "")])
    found = _reported(tmp_path, shard, serial, [_cache_round_trip])
    assert any("atomic_write_bytes" in f and "returned" in f for f in found)


def test_reports_atomic_write_without_dir_fsync(monkeypatch, tmp_path, shard, serial):
    _mutant(monkeypatch, store, store, "atomic_write_bytes", [("        fsync_dir(path.parent)\n", "")])
    found = _reported(tmp_path, shard, serial, [_cache_round_trip])
    assert any("atomic_write_bytes" in f and "returned" in f for f in found)


_TRUNCATING_WRITER = '''
def atomic_write_bytes(path, data):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        for chunk in [data] if isinstance(data, (bytes, bytearray, memoryview)) else data:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    return path
'''


def test_reports_truncate_then_write(monkeypatch, tmp_path, shard, serial):
    scope: dict = {}
    exec(_TRUNCATING_WRITER, vars(store), scope)
    monkeypatch.setattr(store, "atomic_write_bytes", scope["atomic_write_bytes"])
    found = _reported(tmp_path, shard, serial, [_cache_round_trip])
    assert any("atomic_write_bytes" in f and "interrupted" in f for f in found)


def test_reports_reopen_truncating_before_quarantine(monkeypatch, tmp_path, shard, serial):
    quarantine = (
        "    if raw[valid:]:\n"
        '        quarantine_bytes(raw[valid:], path.parent, path.name + ".tail")\n'
    )
    seek = "    journal._fh.seek(valid)\n"
    _mutant(monkeypatch, SealedJournal, journal, "_reopen", [(quarantine, ""), (seek, seek + quarantine)])
    found = _reported(tmp_path, shard, serial, [_journaled_campaign, _resume_over_torn_tail])
    assert any("SealedJournal._reopen" in f for f in found)


def test_reports_repair_truncating_without_fsync(monkeypatch, tmp_path, shard, serial):
    _mutant(monkeypatch, store, store, "repair_journal", [("        os.fsync(fh.fileno())", "        pass")])
    found = _reported(tmp_path, shard, serial, [_journaled_campaign, _doctor_repair])
    assert any("repair_journal" in f and "returned" in f for f in found)
