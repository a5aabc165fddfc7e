"""Crash-consistency and instrumentation-escape analysis.

Every measurement in this reproduction assumes that application kernels
touch simulated NVM *only* through the managed-array API and that the
regions an app declares match the regions it executes.  A silent raw
``.np`` escape or a region/write-set mismatch corrupts inconsistent-rate
measurements without failing any functional test.  This package holds the
two cooperating passes that guard that assumption (in the spirit of
WITCHER-style systematic crash-consistency checking):

* :mod:`repro.analysis.static_pass` — a Python ``ast`` pass over the
  application sources, catching instrumentation escapes, out-of-region
  writes, region declarations that drift from region use, and data
  objects that bypass the persistent heap;
* :mod:`repro.analysis.trace_pass` — an event-stream validator over the
  runtime's persist/store events, catching dirty-at-commit objects,
  dead persists, and persist-schedule violations;
* :mod:`repro.analysis.driver` — the front end that runs both passes
  and powers ``repro analyze``.
"""

from repro.analysis.findings import Finding, RULES, Severity
from repro.analysis.driver import AnalysisReport, analyze
from repro.analysis.static_pass import analyze_source, analyze_paths
from repro.analysis.trace_pass import TraceCollector, check_trace, run_traced

__all__ = [
    "AnalysisReport",
    "Finding",
    "RULES",
    "Severity",
    "TraceCollector",
    "analyze",
    "analyze_paths",
    "analyze_source",
    "check_trace",
    "run_traced",
]
