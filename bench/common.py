"""Plumbing shared by the benchmark's modules: where things are, the
environment every measurement runs under, scratch directories and digests.

The benchmark only ever *calls into* the program (``src/repro``); nothing
here is imported by it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"  # everything a run writes lives here (git-ignored)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: One compute thread per process, so "2 compute processes" means 2 cores.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Program switches that would change what is measured.
SCRUBBED = (
    "REPRO_OBS",
    "REPRO_JOBS",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_QUOTA",
    "REPRO_CHAOS",
    "REPRO_GOLDEN",
    "REPRO_BENCH_SCALE",
)


def prepare_environment() -> None:
    """Pin threads, scrub program switches, make the program importable.

    Must run before numpy is imported.  Children inherit ``os.environ``,
    so the same hygiene (plus ``PYTHONPATH`` and a ``TMPDIR`` inside the
    checkout) reaches every ``repro.cli`` subprocess and pool worker.
    """
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench: nothing to measure: {SRC / 'repro'} does not exist")
    for var in PINNED:
        os.environ[var] = "1"
    for var in SCRUBBED:
        os.environ.pop(var, None)
    # Idempotent (the tests prepare, then import run.py), and absolute:
    # served children run in their own working directory.
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + inherited)
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


@contextlib.contextmanager
def scratch() -> Iterator[Path]:
    """A private directory for one pass's journals, sockets, caches and
    ``--save`` files, removed afterwards."""
    path = Path(tempfile.mkdtemp(prefix="pass-"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def canonical(doc: object) -> str:
    """The JSON form record sets are compared and hashed in."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc: object) -> str:
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


def cpu_seconds() -> float:
    """User+system CPU of this process and every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def platform_probe() -> str:
    """Digest of a fixed floating-point computation in the numpy/BLAS
    kernels the apps lean on.  ``expected.json`` digests are only
    comparable on a platform whose arithmetic matches bit for bit; the
    probe involves no program code, so a program change cannot move it."""
    import numpy as np

    rng = np.random.default_rng(2020)
    a = rng.standard_normal((96, 96))
    parts = [a @ a, np.fft.fftn(a), np.exp(a), np.sqrt(np.abs(a)), np.cumsum(a), np.linalg.solve(a, a[0])]
    h = hashlib.sha256(np.__version__.encode())
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def stamp(seed: int) -> dict:
    """Provenance printed with every result."""
    import platform

    import numpy as np
    from repro.obs.export import git_sha

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }
