"""Structured findings and the rule catalog.

A :class:`Finding` is one violation discovered by either pass.  Its
``key`` is deliberately line-number-free (rule + file/app + symbol), so
SARIF consumers can match a finding across unrelated edits; its
``where`` carries the precise ``file:line`` (static) or
``app/iteration/region`` (dynamic) coordinate for humans.

An intentional static violation is suppressed inline, with a
``# analysis: allow(<rule>[, <rule>...])`` comment on the offending line
or the line directly above it.  Dynamic findings have no suppression: a
dynamic finding means the runtime disagrees with its own plan, which is
an engine bug to fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Severity", "Finding", "RULES"]


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
        "dynamic",
        "persist events disagree with the plan's region/iteration schedule",
    ),
}


@dataclass(frozen=True)
class Finding:
    """One analyzer violation."""

    rule: str
    severity: Severity
    where: str  # "path.py:123" or "app=MG it=2 region=R1"
    message: str
    key: str  # stable, line-number-free id (SARIF's reproKey)

    def render(self) -> str:
        return f"{self.severity.value:7s} {self.rule:20s} {self.where}: {self.message}"
