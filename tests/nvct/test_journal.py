"""Write-ahead campaign journal: durability, torn tails, resume identity."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.apps.registry import get_factory
from repro.errors import JournalError, TrialTimeout
from repro.nvct import campaign as campaign_mod
from repro.nvct.campaign import CampaignConfig, CrashTestRecord, Response, run_campaign
from repro.nvct.journal import CampaignJournal, campaign_header, load_journal
from repro.nvct.serialize import campaign_to_dict

FACTORY = get_factory("EP")
CFG = CampaignConfig(n_tests=8, seed=3)


def _header():
    return campaign_header(FACTORY, CFG)


def _record(i: int) -> CrashTestRecord:
    return CrashTestRecord(
        counter=100 + i, iteration=i, region="loop", rates={"q": 0.1 * i},
        response=Response.S1,
    )


def test_resumed_save_is_byte_identical_to_a_fresh_save(tmp_path):
    """Regression: journal lines are written with ``sort_keys``, so a
    replayed record used to carry sorted ``rates`` keys while a freshly
    classified one kept insertion order — ``--save`` bytes depended on
    whether a record had been through a journal (IS: four objects whose
    insertion order is not sorted)."""
    from repro.nvct.serialize import save_campaign

    factory = get_factory("IS")
    cfg = CampaignConfig(n_tests=6, seed=1)
    fresh = save_campaign(run_campaign(factory, cfg), tmp_path / "fresh.json")

    path = tmp_path / "j.jsonl"
    run_campaign(factory, cfg, journal=path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[: 1 + cfg.n_tests // 2]))  # header + half
    resumed = save_campaign(
        run_campaign(factory, cfg, journal=path), tmp_path / "resumed.json"
    )
    assert resumed.read_bytes() == fresh.read_bytes()


def test_append_load_roundtrip(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal.create(path, _header()) as j:
        for i in range(4):
            j.append(i, _record(i))
    header, records, valid = load_journal(path)
    # created_at is stamped at write time; everything else must round-trip
    stable = {k: v for k, v in header.items() if k != "created_at"}
    assert stable == {k: v for k, v in _header().items() if k != "created_at"}
    assert sorted(records) == [0, 1, 2, 3]
    assert records[2] == _record(2)
    assert valid == path.stat().st_size  # every byte accounted for


def test_torn_tail_is_ignored_and_truncated_on_resume(tmp_path):
    path = tmp_path / "j.jsonl"
    with CampaignJournal.create(path, _header()) as j:
        for i in range(3):
            j.append(i, _record(i))
    intact = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "trial", "index": 3, "rec')  # SIGKILL mid-append
    header, records, valid = load_journal(path)
    assert header is not None and sorted(records) == [0, 1, 2]
    assert valid == intact
    j, completed = CampaignJournal.open_or_resume(path, _header())
    with j:
        assert sorted(completed) == [0, 1, 2]
        assert path.stat().st_size == intact  # tail truncated away
        j.append(3, _record(3))  # appends stay line-aligned afterwards
    _, records, _ = load_journal(path)
    assert sorted(records) == [0, 1, 2, 3]


def test_refuses_foreign_and_garbage_journals(tmp_path):
    path = tmp_path / "other.jsonl"
    other = campaign_header(FACTORY, CampaignConfig(n_tests=8, seed=99))
    with CampaignJournal.create(path, other):
        pass
    with pytest.raises(JournalError, match="different campaign config [(]seed: 99 -> 3[)]"):
        CampaignJournal.open_or_resume(path, _header())
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("this is not a journal\n")
    with pytest.raises(JournalError, match="not a campaign journal"):
        CampaignJournal.open_or_resume(garbage, _header())


def _write_header_without_config(path):
    """A sealed header line in the shape older versions wrote: ``n_tests``
    and ``seed`` at the top level, no campaign document."""
    from repro.harness.store import seal_line

    header = {k: v for k, v in _header().items() if k != "config"}
    header.update(n_tests=CFG.n_tests, seed=CFG.seed)
    path.write_text(json.dumps(seal_line(header), sort_keys=True) + "\n")


def test_refuses_a_header_without_campaign_document(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "old.jsonl"
    _write_header_without_config(path)
    with pytest.raises(JournalError, match="no campaign document"):
        run_campaign(FACTORY, CFG, journal=path)
    code = main(["campaign", "EP", "--tests", "8", "--seed", "3", "--resume", str(path)])
    assert code == 2
    assert "no campaign document" in capsys.readouterr().err


def test_missing_or_empty_file_starts_fresh(tmp_path):
    path = tmp_path / "fresh.jsonl"
    j, completed = CampaignJournal.open_or_resume(path, _header())
    with j:
        assert completed == {}
    (tmp_path / "empty.jsonl").touch()
    j, completed = CampaignJournal.open_or_resume(tmp_path / "empty.jsonl", _header())
    with j:
        assert completed == {}


def test_campaign_journals_every_trial(tmp_path):
    path = tmp_path / "j.jsonl"
    result = run_campaign(FACTORY, CFG, jobs=1, journal=path)
    _, records, _ = load_journal(path)
    assert sorted(records) == list(range(len(result.records)))
    assert [records[i] for i in range(len(result.records))] == result.records


def test_resume_after_interruption_is_bit_identical(tmp_path):
    baseline = run_campaign(FACTORY, CFG, jobs=1)
    path = tmp_path / "j.jsonl"
    run_campaign(FACTORY, CFG, jobs=1, journal=path)
    # simulate a crash: keep the header + 3 trials + a torn half-line
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:4]) + lines[4][: len(lines[4]) // 2])
    resumed = run_campaign(FACTORY, CFG, jobs=1, journal=path)
    assert resumed.records == baseline.records
    assert json.dumps(campaign_to_dict(resumed), sort_keys=True) == json.dumps(
        campaign_to_dict(baseline), sort_keys=True
    )


def test_parallel_journaled_campaign_matches_serial(tmp_path):
    baseline = run_campaign(FACTORY, CFG, jobs=1)
    path = tmp_path / "j.jsonl"
    parallel = run_campaign(FACTORY, CFG, jobs=2, journal=path)
    assert parallel.records == baseline.records
    _, records, _ = load_journal(path)
    assert [records[i] for i in range(len(baseline.records))] == baseline.records


def test_completed_journal_reruns_nothing(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    first = run_campaign(FACTORY, CFG, jobs=1, journal=path)

    def explode(*a, **k):
        raise AssertionError("a completed journal must skip classification")

    monkeypatch.setattr(campaign_mod, "_classify", explode)
    again = run_campaign(FACTORY, CFG, jobs=1, journal=path)
    assert again.records == first.records


def test_poison_trial_is_quarantined_as_failed(monkeypatch):
    calls = {"n": 0}
    orig = campaign_mod._classify

    def poison(factory, snap, golden_iterations, cfg):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("poison trial")
        return orig(factory, snap, golden_iterations, cfg)

    monkeypatch.setattr(campaign_mod, "_classify", poison)
    result = run_campaign(FACTORY, CFG, jobs=1)
    failed = [r for r in result.records if r.response is Response.FAILED]
    assert len(failed) == 1
    assert failed[0].error == "RuntimeError: poison trial"
    assert len(result.records) == CFG.n_tests  # the campaign still completed


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_trial_timeout_quarantines_slow_trial(monkeypatch):
    calls = {"n": 0}
    orig = campaign_mod._classify

    def sometimes_hangs(factory, snap, golden_iterations, cfg):
        calls["n"] += 1
        if calls["n"] == 1:
            time.sleep(30)
        return orig(factory, snap, golden_iterations, cfg)

    monkeypatch.setattr(campaign_mod, "_classify", sometimes_hangs)
    # The deadline sits far above an ordinary trial and far below the 30 s
    # hang, so only the hanging trial can trip it.
    result = run_campaign(FACTORY, CFG, jobs=1, trial_timeout=2.0)
    failed = [r for r in result.records if r.response is Response.FAILED]
    assert len(failed) == 1
    assert failed[0].error.startswith(TrialTimeout.__name__)


# -- the acceptance test: SIGKILL mid-campaign, resume, compare ---------------

_CHILD = """
import sys, time
import repro.nvct.campaign as camp
_orig = camp._classify
def _slow(*a, **k):
    time.sleep(0.2)  # give the parent time to SIGKILL us mid-campaign
    return _orig(*a, **k)
camp._classify = _slow
from repro.apps.registry import get_factory
from repro.nvct.campaign import CampaignConfig
camp.run_campaign(
    get_factory("EP"), CampaignConfig(n_tests=8, seed=3),
    jobs=1, journal=sys.argv[1],
)
print("COMPLETE", flush=True)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_sigkill_then_resume_is_bit_identical(tmp_path):
    """Kill a journaled campaign process mid-run with SIGKILL; rerunning
    with the same journal must reproduce the uninterrupted report exactly."""
    journal = tmp_path / "j.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(journal)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                out, err = proc.communicate()
                pytest.fail(f"campaign finished before the kill: {err.decode()!r}")
            if journal.exists() and journal.read_bytes().count(b"\n") >= 4:
                break  # header + >= 3 journaled trials: mid-campaign
            time.sleep(0.02)
        else:
            pytest.fail("journal never accumulated trials")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    journaled = journal.read_bytes().count(b"\n")
    assert 4 <= journaled < 1 + CFG.n_tests  # interrupted partway, durably

    resumed = run_campaign(FACTORY, CFG, jobs=1, journal=journal)
    baseline = run_campaign(FACTORY, CFG, jobs=1)
    assert resumed.records == baseline.records
    assert json.dumps(campaign_to_dict(resumed), sort_keys=True) == json.dumps(
        campaign_to_dict(baseline), sort_keys=True
    )


def test_bit_rotted_tail_record_is_quarantined_on_resume(tmp_path):
    """Silent bit-rot that still parses as JSON: only the line CRC can
    catch it.  The journal ends at the last intact line, the rotted tail
    is preserved under quarantine/, and the trial simply re-runs."""
    path = tmp_path / "j.jsonl"
    with CampaignJournal.create(path, _header()) as j:
        for i in range(3):
            j.append(i, _record(i))
    lines = path.read_bytes().splitlines(keepends=True)
    rotted = json.loads(lines[-1])
    rotted["record"]["counter"] += 1  # the crc field is now stale
    lines[-1] = json.dumps(rotted, sort_keys=True).encode() + b"\n"
    path.write_bytes(b"".join(lines))

    header, records, valid = load_journal(path)
    assert header is not None and sorted(records) == [0, 1]
    j, completed = CampaignJournal.open_or_resume(path, _header())
    j.close()
    assert sorted(completed) == [0, 1]
    assert path.stat().st_size == valid  # live file truncated to intact prefix
    tails = list((tmp_path / "quarantine").iterdir())
    assert len(tails) == 1 and tails[0].name.startswith("j.jsonl.tail")
    assert json.loads(tails[0].read_bytes())["record"]["counter"] == rotted["record"]["counter"]


def test_journal_line_without_crc_ends_the_journal(tmp_path):
    """A line nobody can verify is a bad line: the journal ends at the
    last sealed one and everything after it goes to ``<name>.tail``."""
    from repro.nvct.serialize import record_to_dict

    path = tmp_path / "j.jsonl"
    with CampaignJournal.create(path, _header()) as j:
        for i in range(3):
            j.append(i, _record(i))
    lines = path.read_bytes().splitlines(keepends=True)
    unsealed = {"kind": "trial", "index": 1, "record": record_to_dict(_record(1))}
    lines[2] = json.dumps(unsealed, sort_keys=True).encode() + b"\n"
    path.write_bytes(b"".join(lines))

    j, completed = CampaignJournal.open_or_resume(path, _header())
    j.close()
    assert sorted(completed) == [0]
    assert path.read_bytes() == b"".join(lines[:2])
    (tail,) = (tmp_path / "quarantine").iterdir()
    assert tail.name == "j.jsonl.tail" and tail.read_bytes() == b"".join(lines[2:])


def test_header_write_rides_the_append_retry(tmp_path, monkeypatch):
    """One transient ``OSError`` on the very first line must not kill
    ``create``: the header gets the same bounded retry as every trial."""
    from repro.harness.store import open_line

    real_write_line = CampaignJournal._write_line
    attempts = []

    def flaky(self, doc):
        attempts.append(doc["kind"])
        if len(attempts) == 1:
            raise OSError("transient")
        real_write_line(self, doc)

    monkeypatch.setattr(CampaignJournal, "_write_line", flaky)
    path = tmp_path / "j.jsonl"
    header = _header()
    CampaignJournal.create(path, header).close()
    assert attempts == ["header", "header"]
    (line,) = path.read_bytes().splitlines()
    assert open_line(json.loads(line)) == header


# -- a failed fsync after the line landed (the recording seam's faults) ----------


def _raw_lines(path) -> list:
    """Every intact line as ``"header"`` or its trial index, in file order."""
    from repro.nvct.journal import scan_journal

    _, lines, _ = scan_journal(path.read_bytes())
    return [doc["index"] if doc["kind"] == "trial" else doc["kind"] for doc, _ in lines]


@pytest.fixture(scope="module")
def ep6():
    """EP x6 recorded once, and its clean (unjournaled) result."""
    from repro.nvct.campaign import PreparedShard, plan_shards, run_shard

    (plan,), _ = plan_shards(FACTORY, CampaignConfig(n_tests=6, seed=1))
    shard = PreparedShard.record(FACTORY, plan)
    return shard, campaign_to_dict(run_shard(shard))


@pytest.mark.parametrize("position", range(7))
def test_failed_append_fsync_journals_each_index_once(tmp_path, ep6, position):
    """The fsync of append ``position`` (0: the header) fails after its
    line landed: the retry must rewrite that line in place, not add it
    again, and the campaign must equal a clean run."""
    from dataclasses import replace

    from repro.nvct.campaign import run_shard
    from tests.harness.recording_fs import RecordingFS

    shard, clean = ep6
    path = tmp_path / "j.jsonl"
    fs = RecordingFS(tmp_path)
    fs.fail("fsync", path="j.jsonl", skip=position)
    with fs.recording():
        result = run_shard(replace(shard, plan=replace(shard.plan, journal=path)))
    assert _raw_lines(path) == ["header", *range(6)]
    assert campaign_to_dict(result) == clean


ATTEMPTS = CampaignJournal.APPEND_ATTEMPTS


@pytest.mark.parametrize("failures", [ATTEMPTS - 1, ATTEMPTS])
def test_append_absorbs_all_but_the_last_failed_attempt(tmp_path, failures):
    """Up to ``APPEND_ATTEMPTS - 1`` failed fsyncs in a row are absorbed;
    the next one propagates.  Either way each attempt rewrote the same
    line, so it is on disk once."""
    from tests.harness.recording_fs import RecordingFS

    path = tmp_path / "j.jsonl"
    fs = RecordingFS(tmp_path)
    fs.fail("fsync", path="j.jsonl", skip=1, times=failures)  # the first trial's attempts
    with fs.recording():
        journal = CampaignJournal.create(path, _header())
        if failures < ATTEMPTS:
            journal.append(0, _record(0))
        else:
            with pytest.raises(OSError, match="injected fsync failure"):
                journal.append(0, _record(0))
        journal.close()
    writes = [op for op in fs.ops if op.kind == "write"]
    assert len(writes) == 1 + min(failures + 1, ATTEMPTS)  # the header, then each attempt
    assert _raw_lines(path) == ["header", 0]
