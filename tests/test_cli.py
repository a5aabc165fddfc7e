"""CLI commands (driven in-process)."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_apps(capsys):
    code, out = run_cli(capsys, "list-apps")
    assert code == 0
    for name in ("CG", "MG", "kmeans", "botsspar"):
        assert name in out


def test_system_model(capsys):
    code, out = run_cli(
        capsys, "system", "--mtbf-hours", "12", "--t-chk", "3200",
        "--recomputability", "0.82", "--ts", "0.015",
    )
    assert code == 0
    assert "with EasyCrash" in out
    assert "tau" in out


def test_campaign_none_plan(capsys):
    code, out = run_cli(capsys, "campaign", "kmeans", "--tests", "12", "--seed", "3")
    assert code == 0
    assert "recomputability" in out
    assert "per-region breakdown" in out
    assert "data inconsistent rates" in out


def test_campaign_loop_plan(capsys):
    code, out = run_cli(
        capsys, "campaign", "kmeans", "--tests", "12", "--plan", "loop"
    )
    assert code == 0
    assert "S1 success" in out


def test_plan_command(capsys):
    code, out = run_cli(capsys, "plan", "kmeans", "--tests", "60")
    assert code == 0
    assert "critical objects" in out
    assert "recomputability" in out


def test_unknown_app_raises():
    with pytest.raises(KeyError):
        main(["campaign", "NOPE", "--tests", "5"])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_characterize_command(capsys):
    code, out = run_cli(capsys, "characterize", "kmeans")
    assert code == 0
    assert "centroids" in out and "R/W" in out


def test_campaign_save_roundtrip(capsys, tmp_path):
    from repro.nvct.serialize import load_campaign

    target = tmp_path / "camp.json"
    code, out = run_cli(capsys, "campaign", "kmeans", "--tests", "8", "--save", str(target))
    assert code == 0
    assert target.exists()
    loaded = load_campaign(target)
    assert loaded.app == "kmeans"
    assert loaded.n_tests == 8


def test_advise_command(capsys):
    code, out = run_cli(
        capsys, "advise", "kmeans", "--tests", "40", "--t-chk", "3200",
    )
    assert code == 0
    assert "tau=" in out
    assert ("USE EasyCrash" in out) or ("plain C/R" in out)


def test_campaign_until_stable(capsys):
    code, out = run_cli(
        capsys, "campaign", "kmeans", "--tests", "15", "--until-stable"
    )
    assert code == 0
    assert "stabilized after" in out
    assert "95% CI" in out


@pytest.mark.skipif(not hasattr(__import__("signal"), "setitimer"), reason="needs SIGALRM")
def test_campaign_until_stable_honours_trial_timeout(capsys, tmp_path, monkeypatch):
    """``--trial-timeout`` reaches every round of ``--until-stable``: the
    one trial that hangs is quarantined as a FAILED record."""
    import time

    from repro.errors import TrialTimeout
    from repro.nvct import campaign as campaign_mod
    from repro.nvct.campaign import Response
    from repro.nvct.serialize import load_campaign

    calls = {"n": 0}
    orig = campaign_mod._classify

    def sometimes_hangs(factory, snap, golden_iterations, cfg):
        calls["n"] += 1
        if calls["n"] == 1:
            time.sleep(30)
        return orig(factory, snap, golden_iterations, cfg)

    monkeypatch.setattr(campaign_mod, "_classify", sometimes_hangs)
    save = tmp_path / "stable.json"
    # A kmeans trial takes ~0.1 s; the deadline sits far above that and far
    # below the 30 s hang, so only the hanging trial can trip it.
    code, out = run_cli(
        capsys, "campaign", "kmeans", "--tests", "15", "--until-stable",
        "--trial-timeout", "2", "--save", str(save),
    )
    assert code == 0 and "stabilized after" in out
    failed = [r for r in load_campaign(save).records if r.response is Response.FAILED]
    assert len(failed) == 1
    assert failed[0].error.startswith(TrialTimeout.__name__)


def test_campaign_resume_journals_and_replays(capsys, tmp_path, monkeypatch):
    journal = tmp_path / "j.jsonl"
    code, out = run_cli(
        capsys, "campaign", "kmeans", "--tests", "8", "--resume", str(journal)
    )
    assert code == 0
    assert journal.read_bytes().count(b"\n") == 1 + 8  # header + one line per trial

    # a second run must replay the journal, not reclassify anything
    def explode(*a, **k):
        raise AssertionError("resumed run reclassified a journaled trial")

    monkeypatch.setattr("repro.nvct.campaign._classify", explode)
    code2, out2 = run_cli(
        capsys, "campaign", "kmeans", "--tests", "8", "--resume", str(journal)
    )
    assert code2 == 0
    assert out2 == out  # bit-identical report


def test_campaign_resume_foreign_journal_exits_2(capsys, tmp_path):
    journal = tmp_path / "j.jsonl"
    code, _ = run_cli(
        capsys, "campaign", "kmeans", "--tests", "8", "--resume", str(journal)
    )
    assert code == 0
    code = main(
        ["campaign", "kmeans", "--tests", "9", "--resume", str(journal)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "different campaign" in err


def test_campaign_resume_conflicts_with_until_stable(capsys, tmp_path):
    code = main(
        ["campaign", "kmeans", "--tests", "8", "--until-stable",
         "--resume", str(tmp_path / "j.jsonl")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "--until-stable" in err


def test_campaign_multinode(capsys, tmp_path):
    save = tmp_path / "cluster.json"
    rlog = tmp_path / "recovery.json"
    code, out = run_cli(
        capsys, "campaign", "MG", "--tests", "8", "--seed", "3",
        "--nodes", "4", "--correlation", "0.3",
        "--save", str(save), "--recovery-log", str(rlog),
    )
    assert code == 0
    assert "topology: 4 node(s), correlation 0.3" in out
    assert "recovery mix" in out
    (line,) = [ln for ln in out.splitlines() if ln.startswith("recomputability: ")]
    assert line.endswith("] 95% CI")
    assert "Recovery mix by burst size" in out
    import json

    doc = json.loads(save.read_text())
    assert doc["kind"] == "cluster-campaign"
    log = json.loads(rlog.read_text())
    assert log["nodes"] == 4 and log["bursts"]


def test_campaign_multinode_flag_conflicts_exit_2(capsys):
    for extra in (
        ["--until-stable"],
        ["--cores", "2"],
    ):
        code = main(
            ["campaign", "MG", "--tests", "4", "--nodes", "2", *extra]
        )
        err = capsys.readouterr().err
        assert code == 2, extra
        assert "--nodes" in err


def test_campaign_zero_tests_prints_an_empty_report(capsys):
    code, out = run_cli(capsys, "campaign", "EP", "--tests", "0")
    assert code == 0
    assert "(0 crash tests" in out


def test_campaign_crash_model_on_multicore_exits_2(capsys):
    code = main(["campaign", "EP", "--tests", "4", "--cores", "2", "--crash-model", "eadr"])
    err = capsys.readouterr().err
    assert code == 2
    assert "crash model" in err and "golden" not in err


def test_campaign_has_one_snapshot_engine():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign", "EP", "--no-golden"])


@pytest.mark.parametrize("argv", [
    ["campaign", "EP", "--crash-plan", "plan.json"],
    ["serve", "EP", "--socket", "s", "--journal", "j", "--crash-plan", "plan.json"],
    ["analyze", "--apps", "EP", "--emit-plan", "plan.json"],
])
def test_campaign_has_one_outcome_reuse_path(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_campaign_multinode_bad_correlation_exits_2(capsys):
    code = main(["campaign", "MG", "--tests", "4", "--correlation", "1.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "correlation" in err


def test_campaign_multinode_resume_topology_mismatch_exits_2(capsys, tmp_path):
    journal = tmp_path / "j.jsonl"
    code, _ = run_cli(
        capsys, "campaign", "MG", "--tests", "6", "--seed", "3",
        "--nodes", "2", "--correlation", "0.3", "--resume", str(journal),
    )
    assert code == 0
    code = main(
        ["campaign", "MG", "--tests", "6", "--seed", "3",
         "--nodes", "4", "--correlation", "0.3", "--resume", str(journal)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "nodes: 2 -> 4" in err


def test_keyboard_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted(*a, **k):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.nvct.campaign.run_campaign", interrupted)
    code = main(["campaign", "kmeans", "--tests", "4"])
    err = capsys.readouterr().err
    assert code == 130
    assert "rerun with --resume" in err


BUGGY_APP = """\
class BadApp:
    REGIONS = ("R1",)

    def _allocate(self):
        self.u = self.ws.array("u", (8,))

    def _iterate(self, it):
        with self.ws.region("R1"):
            self.u.np[0] = 1.0
        return False
"""


def test_analyze_strict_over_registry(capsys):
    code, out = run_cli(capsys, "analyze", "--strict")
    assert code == 0
    assert "analysis: OK" in out
    assert "11 apps traced" in out


def test_analyze_reports_findings(capsys, tmp_path):
    bad = tmp_path / "bad_app.py"
    bad.write_text(BUGGY_APP)
    code, out = run_cli(capsys, "analyze", str(bad), "--no-dynamic")
    assert code == 1
    assert "raw-np-escape" in out
    assert "bad_app.py" in out


def test_analyze_unknown_app_exits_2(capsys):
    code = main(["analyze", "--no-dynamic", "--apps", "NOPE"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown application 'NOPE'" in err
    assert "list-apps" in err


def test_analyze_sarif_export(capsys, tmp_path):
    bad = tmp_path / "bad_app.py"
    bad.write_text(BUGGY_APP)
    sarif = tmp_path / "report.sarif"
    code, out = run_cli(
        capsys, "analyze", str(bad), "--no-dynamic", "--sarif", str(sarif),
    )
    assert code == 1
    assert "sarif report" in out

    import json

    doc = json.loads(sarif.read_text())
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["raw-np-escape"]
    assert results[0]["partialFingerprints"]["reproKey"]


def test_analyze_update_baseline_then_clean(capsys, tmp_path):
    bad = tmp_path / "bad_app.py"
    bad.write_text(BUGGY_APP)
    baseline = tmp_path / "baseline.json"
    code, out = run_cli(
        capsys, "analyze", str(bad), "--no-dynamic",
        "--baseline", str(baseline), "--update-baseline",
    )
    assert code == 0
    assert baseline.exists()
    code, out = run_cli(
        capsys, "analyze", str(bad), "--no-dynamic",
        "--strict", "--baseline", str(baseline),
    )
    assert code == 0
    assert "1 baselined" in out


def test_exit_code_taxonomy_constants():
    from repro import errors

    assert (
        errors.EXIT_OK,
        errors.EXIT_FAILURE,
        errors.EXIT_USAGE,
        errors.EXIT_CORRUPT,
        errors.EXIT_INTERRUPTED,
    ) == (0, 1, 2, 3, 130)


def test_stats_corrupt_bench_exits_3(tmp_path, capsys):
    import json

    from repro.obs.export import write_bench

    path = tmp_path / "bench.json"
    write_bench(path, [{"metric": "x", "value": 1.0, "unit": "tests/s",
                        "scale": "t", "git_sha": "s"}])
    doc = json.loads(path.read_text())
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps({**doc, "records": [{**doc["records"][0], "git_sha": "f"}]}))
    doc["records"][0]["value"] = 9.9  # tampered: CRC is now stale
    path.write_text(json.dumps(doc))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc["records"]))  # no seal: nothing to verify
    old = tmp_path / "old.json"  # the schema-1 layout: an unsealed header beside the records
    old.write_text(
        '{"__repro_store__": {"created_at": "2026-10-01T12:00:00Z", "git_sha": "737d117", '
        '"payload_crc32": 182675683, "schema_version": 1}, "payload": [{"git_sha": "737d117", '
        '"metric": "x", "scale": "t", "unit": "tests/s", "value": 1.0}]}'
    )
    for damaged in (path, forged, bare, old):
        code = main(["stats", str(damaged)])
        err = capsys.readouterr().err
        assert code == 3
        assert "corrupt" in err and "doctor fsck" in err


def test_stats_unreadable_file_still_exits_2(tmp_path, capsys):
    bad = tmp_path / "not-json.json"
    bad.write_text("{nope")
    code = main(["stats", str(bad)])
    assert code == 2


def test_doctor_preflight_ok(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_QUOTA", raising=False)
    code, out = run_cli(capsys, "doctor")
    assert code == 0
    assert "doctor: OK" in out
    assert "python" in out and "numpy" in out and "cache-dir" in out


def test_doctor_fsck_detects_then_repairs_truncated_entry(capsys, tmp_path, monkeypatch):
    from repro.harness.store import ENTRY_KIND, atomic_write_bytes, crc32, seal_head

    root = tmp_path / "cache"
    entry = root / "campaign" / "aa" / "aabbcc.json"
    payload = b'{"fine": true}'
    atomic_write_bytes(entry, seal_head(ENTRY_KIND, payload_crc32=crc32(payload)) + payload)
    entry.write_bytes(entry.read_bytes()[:-4])  # truncated payload
    bare = root / "campaign" / "bb" / "bbccdd.json"
    atomic_write_bytes(bare, b'{"fine": true}')  # no envelope
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))

    code, out = run_cli(capsys, "doctor", "fsck")
    assert code == 1
    for path in (entry, bare):
        (line,) = (ln for ln in out.splitlines() if str(path) in ln)
        assert line.split()[0] == "corrupt"

    code, out = run_cli(capsys, "doctor", "fsck", "--repair")
    assert code == 0 and out.count("quarantined ->") == 2
    assert not entry.exists() and not bare.exists()
    assert len(list((root / "quarantine").iterdir())) == 2  # moved, not deleted

    code, out = run_cli(capsys, "doctor", "fsck")
    assert code == 0 and "fsck: OK" in out


def test_doctor_fsck_repairs_journal_tail(capsys, tmp_path):
    from repro.nvct.journal import CampaignJournal

    path = tmp_path / "j.jsonl"
    CampaignJournal.create(path, {"kind": "header", "key": "k"}).close()
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "trial", "ind')  # torn append
    code, out = run_cli(capsys, "doctor", "fsck", "--journal", str(path))
    assert code == 1 and "corrupt" in out
    code, out = run_cli(capsys, "doctor", "fsck", "--journal", str(path),
                        "--repair")
    assert code == 0
    assert (tmp_path / "quarantine").exists()


def test_doctor_fsck_with_nothing_to_scan_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    code = main(["doctor", "fsck"])
    assert code == 2
