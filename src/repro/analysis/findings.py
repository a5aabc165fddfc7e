"""Structured findings, the rule catalog, and the baseline allowlist.

A :class:`Finding` is one violation discovered by either pass.  Its
``key`` is deliberately line-number-free (rule + file/app + symbol), so
baselines survive unrelated edits; its ``where`` carries the precise
``file:line`` (static) or ``app/iteration/region`` (dynamic) coordinate
for humans.

Intentional violations are suppressed in one of two ways:

* inline — a ``# analysis: allow(<rule>[, <rule>...])`` comment on the
  offending line or the line directly above it (static pass only);
* baseline — the finding's ``key`` listed in the JSON baseline file
  (``tools/analysis_baseline.json``), used mainly for dynamic findings
  and bulk-adoption of the gate on legacy code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

__all__ = ["Severity", "Finding", "RULES", "Baseline", "DEFAULT_BASELINE_PATH"]

DEFAULT_BASELINE_PATH = Path("tools") / "analysis_baseline.json"


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


#: rule id -> (pass, one-line description)
RULES: dict[str, tuple[str, str]] = {
    "raw-np-escape": (
        "static",
        "ManagedArray.np used in main-loop code: accesses bypass the "
        "access counter and cache simulation",
    ),
    "out-of-region-write": (
        "static",
        "managed-array write in the main loop outside any declared code "
        "region: the store is attributed to no region",
    ),
    "region-mismatch": (
        "static",
        "region ids used by _iterate and the class REGIONS declaration "
        "disagree",
    ),
    "unregistered-object": (
        "static",
        "numpy array allocated as application state without registering "
        "it with the PersistentHeap",
    ),
    "torn-commit": (
        "static",
        "multi-object commit group with no single atomic root: the final "
        "persist of the group is not a one-word scalar marker",
    ),
    "unpersisted-at-exit": (
        "static",
        "object stored but never persisted before the iteration ends, in "
        "a class that commits durability manually",
    ),
    "redundant-persist": (
        "static",
        "object re-persisted with no store since its previous persist: "
        "flush latency with no durability gained",
    ),
    "dirty-at-commit": (
        "dynamic",
        "cache blocks of a plan-persisted object still dirty after its "
        "commit-point flush",
    ),
    "dead-persist": (
        "dynamic",
        "persistence operation flushed an object with no stores since "
        "its previous flush (never-dirtied blocks)",
    ),
    "persist-order": (
        "static+dynamic",
        "static: scalar commit marker persisted while guarded data still "
        "has unpersisted stores; dynamic: persist events disagree with "
        "the plan's region/iteration schedule",
    ),
}


@dataclass(frozen=True)
class Finding:
    """One analyzer violation."""

    rule: str
    severity: Severity
    where: str  # "path.py:123" or "app=MG it=2 region=R1"
    message: str
    key: str  # stable baseline key (no line numbers)

    def render(self) -> str:
        return f"{self.severity.value:7s} {self.rule:20s} {self.where}: {self.message}"


@dataclass
class Baseline:
    """Allowlist of finding keys accepted as intentional."""

    keys: set[str] = field(default_factory=set)
    path: Path | None = None

    def __post_init__(self) -> None:
        if self.path is not None:
            self.path = Path(self.path)

    @staticmethod
    def load(path: Path | str | None) -> "Baseline":
        if path is None:
            return Baseline()
        p = Path(path)
        if not p.exists():
            return Baseline(path=p)
        data = json.loads(p.read_text())
        return Baseline(keys=set(data.get("allow", [])), path=p)

    def save(self, path: Path | str | None = None) -> Path:
        from repro.obs.export import write_text

        p = Path(path) if path is not None else self.path
        if p is None:
            raise ValueError("baseline has no path")
        return write_text(p, json.dumps({"version": 1, "allow": sorted(self.keys)}, indent=2))

    def allows(self, finding: Finding) -> bool:
        return finding.key in self.keys

    def split(self, findings: list[Finding]) -> tuple[list[Finding], list[Finding]]:
        """Partition into (active, suppressed)."""
        active = [f for f in findings if not self.allows(f)]
        suppressed = [f for f in findings if self.allows(f)]
        return active, suppressed
