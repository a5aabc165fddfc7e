"""SARIF 2.1.0 export of analyzer reports (``repro analyze --sarif``).

SARIF (Static Analysis Results Interchange Format) is the lingua franca
CI systems ingest for code-scanning annotations.  One run object carries
the whole analyzer invocation: the rule catalog from
:data:`repro.analysis.findings.RULES` becomes ``tool.driver.rules``, and
every finding — active *and* baselined — becomes a ``result``.

Two repo-specific conventions ride on standard fields:

* ``partialFingerprints.reproKey`` carries the finding's stable,
  line-number-free baseline key, so SARIF consumers deduplicate results
  across commits exactly the way the baseline allowlist does;
* baselined findings are exported with a ``suppressions`` entry
  (``kind: "external"``) instead of being dropped — the gate ignores
  them but the dashboard still shows what was allowlisted.

Static findings (``where`` = ``path:line``) get a physical location;
dynamic findings (``where`` = ``app=MG it=2 region=R1``) have no source
coordinate, so their coordinate stays in the message text and the
result carries only the fingerprint.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING

from repro import __version__
from repro.analysis.findings import RULES, Finding

if TYPE_CHECKING:
    from repro.analysis.driver import AnalysisReport

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA", "to_sarif", "write_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: ``where`` values that point at source: "src/repro/apps/mg.py:123"
_WHERE_RE = re.compile(r"^(?P<path>[^:]+\.py):(?P<line>\d+)$")


def _result(finding: Finding, suppressed: bool) -> dict:
    result: dict = {
        "ruleId": finding.rule,
        "level": finding.severity.value,
        "message": {"text": f"{finding.message} [{finding.where}]"},
        "partialFingerprints": {"reproKey": finding.key},
    }
    m = _WHERE_RE.match(finding.where)
    if m:
        result["locations"] = [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": Path(m["path"]).as_posix()},
                    "region": {"startLine": int(m["line"])},
                }
            }
        ]
    if suppressed:
        result["suppressions"] = [
            {"kind": "external", "justification": "baseline allowlist"}
        ]
    return result


def to_sarif(report: "AnalysisReport") -> dict:
    """An :class:`AnalysisReport` as a SARIF 2.1.0 log object."""
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": description},
            "properties": {"pass": pass_name},
            "defaultConfiguration": {
                # each rule defaults to its catalog severity; SARIF
                # wants it on the rule too
                "level": "error" if rule_id not in _WARNING_RULES else "warning",
            },
        }
        for rule_id, (pass_name, description) in sorted(RULES.items())
    ]
    results = [_result(f, suppressed=False) for f in report.findings]
    results += [_result(f, suppressed=True) for f in report.suppressed]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "version": __version__,
                        "informationUri": "https://github.com/",
                        "rules": rules,
                    }
                },
                "results": results,
                "properties": {
                    "filesAnalyzed": report.files_analyzed,
                    "appsTraced": report.apps_traced,
                },
            }
        ],
    }


#: rules whose findings are warnings by construction (kept in sync with
#: the severities the passes emit; everything else defaults to error)
_WARNING_RULES = {
    "dead-persist",
    "redundant-persist",
    "unpersisted-at-exit",
}


def write_sarif(report: "AnalysisReport", path: str | Path) -> Path:
    """Serialize ``report`` to ``path`` as SARIF JSON (atomic write)."""
    from repro.harness.store import atomic_write_bytes

    doc = json.dumps(to_sarif(report), indent=2, sort_keys=True) + "\n"
    return atomic_write_bytes(path, doc.encode("utf-8"))
