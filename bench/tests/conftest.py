"""Run with ``python -m pytest bench/tests`` from the repository root
(outside tier-1's ``testpaths``).  Makes the benchmark's modules and the
program importable exactly the way ``bench/run.py`` does."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.prepare_environment()
