"""Analyzer front end: run both passes, apply the baseline, render.

``analyze()`` is what ``repro analyze`` (and the CI gate) calls:

* the static pass runs over the application package sources (or any
  explicit file list);
* the dynamic pass runs each registry application for a few instrumented
  iterations under a flush-everything-at-loop-end plan — the strictest
  schedule, so every commit-point invariant is exercised — and validates
  the resulting event stream;
* findings whose stable key appears in the baseline allowlist are
  suppressed (reported separately), everything else is active.

Exit policy (mirrored by the CLI): with ``--strict`` any active finding
fails; without it only ``error``-severity findings do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import (
    Baseline,
    DEFAULT_BASELINE_PATH,
    Finding,
    Severity,
)
from repro.analysis.static_pass import analyze_paths
from repro.analysis.trace_pass import check_trace, run_traced

__all__ = ["AnalysisReport", "analyze", "default_app_paths"]

#: iterations of instrumented execution per app in the dynamic pass —
#: enough for every region and two persist intervals to execute.
DYNAMIC_ITERATIONS = 3


def default_app_paths() -> list[Path]:
    """The benchmark-suite sources (every module in ``repro.apps``)."""
    import repro.apps

    pkg_dir = Path(repro.apps.__file__).parent
    return sorted(p for p in pkg_dir.glob("*.py") if p.name != "__init__.py")


@dataclass
class AnalysisReport:
    """Combined result of one analyzer invocation."""

    findings: list[Finding] = field(default_factory=list)  # active
    suppressed: list[Finding] = field(default_factory=list)  # baselined
    files_analyzed: int = 0
    apps_traced: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def ok(self, strict: bool = False) -> bool:
        return not (self.findings if strict else self.errors)

    def render(self) -> str:
        lines = [
            f"analysis: {self.files_analyzed} files, "
            f"{self.apps_traced} apps traced, "
            f"{len(self.findings)} active finding(s), "
            f"{len(self.suppressed)} baselined"
        ]
        for f in sorted(self.findings, key=lambda f: (f.severity.value, f.rule, f.where)):
            lines.append("  " + f.render())
        if self.suppressed:
            lines.append("baselined (allowlisted) findings:")
            for f in sorted(self.suppressed, key=lambda f: f.key):
                lines.append(f"    {f.rule:20s} {f.key}")
        return "\n".join(lines)


def _trace_app(name: str) -> list[Finding]:
    from repro.apps.registry import get_factory
    from repro.nvct.plan import PersistencePlan

    factory = get_factory(name)
    probe = factory.app_cls(runtime=None, **factory.params)
    probe.setup()
    candidates = [o.name for o in probe.ws.heap.candidates()]
    plan = PersistencePlan.at_loop_end(candidates)
    iterations = min(DYNAMIC_ITERATIONS, probe.nominal_iterations())
    events = run_traced(factory, plan, max_iterations=iterations)
    return check_trace(events, plan, app=name)


def analyze(
    paths: Iterable[Path | str] | None = None,
    apps: Sequence[str] | None = None,
    dynamic: bool = True,
    baseline: Baseline | Path | str | None = DEFAULT_BASELINE_PATH,
) -> AnalysisReport:
    """Run the full analyzer.

    ``paths`` defaults to the ``repro.apps`` sources; ``apps`` defaults
    to the whole registry (dynamic pass) and is validated against it —
    an unknown name raises :class:`~repro.errors.UsageError` (CLI exit
    2) instead of a stack trace; ``baseline`` may be a loaded
    :class:`Baseline`, a path, or ``None`` for no allowlist.
    """
    from repro.apps.registry import APP_NAMES, get_factory
    from repro.errors import UsageError

    names = list(apps) if apps is not None else list(APP_NAMES)
    for name in names:
        try:
            get_factory(name)
        except KeyError:
            raise UsageError(
                f"unknown application {name!r} — see `repro list-apps`"
            ) from None

    file_list = list(paths) if paths is not None else default_app_paths()
    findings = analyze_paths(file_list)
    apps_traced = 0
    if dynamic:
        for name in names:
            findings.extend(_trace_app(name))
            apps_traced += 1
    if not isinstance(baseline, Baseline):
        baseline = Baseline.load(baseline)
    active, suppressed = baseline.split(findings)
    return AnalysisReport(
        findings=active,
        suppressed=suppressed,
        files_analyzed=len(file_list),
        apps_traced=apps_traced,
    )
