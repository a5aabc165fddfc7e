"""Benchmark-session fixtures and machine-readable artifact emission.

The experiment context is process-wide, so the expensive planning
campaigns (the EasyCrash workflow per application) are paid once per
``pytest benchmarks/`` session and shared by every table/figure driver.

Every table/figure driver calls :func:`emit`, which routes all artifacts
through the one writer of :mod:`repro.obs.export` (parent directories
created, UTF-8, single trailing newline) and gives each text report a
JSON twin in ``benchmarks/results/``.

Set ``REPRO_BENCH_SCALE=quick|default|paper`` to trade fidelity for time.
"""

import os
from pathlib import Path

import pytest

from repro.harness.context import get_context

RESULTS_DIR = Path(__file__).parent / "results"


def _scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "default")


@pytest.fixture(scope="session")
def ctx():
    return get_context()


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def emit(report, results_dir):
    """Print a regenerated table/figure and persist it as text + JSON twin."""
    text = report.render()
    print("\n" + text)
    report.save(results_dir)
    report.save_json(results_dir, scale=_scale())
    return report
