"""SARIF 2.1.0 export: structural validity and repo conventions."""

import json

from repro.analysis.driver import AnalysisReport
from repro.analysis.findings import RULES, Finding, Severity
from repro.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION, to_sarif, write_sarif


def sample_report():
    active = Finding(
        rule="torn-commit",
        severity=Severity.ERROR,
        where="src/repro/apps/mg.py:42",
        message="multi-object commit group",
        key="torn-commit:mg.py:MG._iterate:a+b",
    )
    dynamic = Finding(
        rule="dirty-at-commit",
        severity=Severity.ERROR,
        where="app=MG it=2 region=R1",
        message="blocks still dirty",
        key="dirty-at-commit:MG:u",
    )
    suppressed = Finding(
        rule="redundant-persist",
        severity=Severity.WARNING,
        where="src/repro/apps/cg.py:7",
        message="re-persisted with no store",
        key="redundant-persist:cg.py:CG._iterate:x",
    )
    return AnalysisReport(
        findings=[active, dynamic],
        suppressed=[suppressed],
        files_analyzed=2,
        apps_traced=1,
    )


def test_sarif_skeleton_is_valid_2_1_0():
    doc = to_sarif(sample_report())
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"] == SARIF_SCHEMA
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-analyze"
    assert {r["id"] for r in driver["rules"]} == set(RULES)
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["properties"]["pass"] in (
            "static", "dynamic", "static+dynamic",
        )


def test_sarif_results_carry_fingerprints_and_locations():
    doc = to_sarif(sample_report())
    results = doc["runs"][0]["results"]
    assert len(results) == 3  # active + dynamic + suppressed
    by_rule = {r["ruleId"]: r for r in results}

    static = by_rule["torn-commit"]
    assert static["level"] == "error"
    assert static["partialFingerprints"]["reproKey"].startswith("torn-commit:")
    (loc,) = static["locations"]
    phys = loc["physicalLocation"]
    assert phys["artifactLocation"]["uri"] == "src/repro/apps/mg.py"
    assert phys["region"]["startLine"] == 42
    assert "suppressions" not in static

    dynamic = by_rule["dirty-at-commit"]
    assert "locations" not in dynamic  # no source coordinate
    assert "app=MG" in dynamic["message"]["text"]

    suppressed = by_rule["redundant-persist"]
    assert suppressed["level"] == "warning"
    assert suppressed["suppressions"] == [
        {"kind": "external", "justification": "baseline allowlist"}
    ]


def test_write_sarif_roundtrips_as_json(tmp_path):
    path = write_sarif(sample_report(), tmp_path / "out.sarif")
    doc = json.loads(path.read_text())
    assert doc["runs"][0]["properties"] == {
        "filesAnalyzed": 2,
        "appsTraced": 1,
    }


def test_sarif_on_real_static_scan(tmp_path):
    """End-to-end: the actual analyzer output exports cleanly."""
    from repro.analysis import analyze

    report = analyze(dynamic=False)
    doc = to_sarif(report)
    assert doc["runs"][0]["results"] == []  # the suite is clean
    assert doc["runs"][0]["properties"]["filesAnalyzed"] == report.files_analyzed > 0
