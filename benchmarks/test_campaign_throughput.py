"""Golden-pass snapshot production must beat the legacy path >= 5x.

The one timing assertion ``bench/`` has no metric for.  Everything else
about campaign speed (classification, the pool fan-out, the cache
simulator) is measured by ``bench/run.py`` and compared by
``bench/compare.py``; bit-identity of the parallel engine lives in
``tests/nvct/test_parallel.py`` and ``test_execution_matrix.py``.

The snapshot-production phase pays O(n_points x heap) in full-image
copies and diffs on the copy-and-diff path (now only the test-tree
oracle, ``tests/nvct/legacy_oracle.py``), O(heap + writeback_traffic)
via delta replay on the golden pass.  A streaming app whose per-iteration
working set is a quarter of a 3 MB candidate array reproduces the regime
the paper's mini-apps live in (heap larger than the per-point mutation
set), where the asymptotic gap is visible at realistic point counts.
"""

import os
import time

import numpy as np
import pytest

from repro.apps.base import AppFactory, Application
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import CountingRuntime, Runtime
from tests.nvct.legacy_oracle import LegacyRuntime

_STREAM_SIZE = 384 * 1024  # doubles: 3 MB candidate heap
_GOLDEN_SCALE = {"quick": (2, 160), "default": (2, 256), "paper": (3, 384)}


class _StreamApp(Application):
    """Sliding-window streaming update over a large persistent array."""

    NAME = "bench-golden-stream"
    REGIONS = ("sweep",)
    DEFAULT_MAX_FACTOR = 1.0

    def __init__(self, runtime=None, size: int = _STREAM_SIZE, nit: int = 2, **kw):
        super().__init__(runtime, size=size, nit=nit, **kw)
        self.size = size
        self.nit = nit

    def nominal_iterations(self):
        return self.nit

    def _allocate(self):
        self.field = self.ws.array("field", (self.size,), candidate=True)

    def _initialize(self):
        self.field.np[...] = 0.0

    def _iterate(self, it):
        q = self.size // 4
        lo = (it % 4) * q
        with self.ws.region("sweep"):
            self.field.update(slice(lo, lo + q), lambda a: np.add(a, 1.0, out=a))
        return False

    def reference_outcome(self):
        return {"sum": float(self.field.np.sum())}

    def verify(self):
        if self.golden is None:
            return True
        return self.reference_outcome()["sum"] == self.golden["sum"]


@pytest.fixture(scope="module")
def stream_setup():
    nit, n_points = _GOLDEN_SCALE.get(
        os.environ.get("REPRO_BENCH_SCALE", "default"), _GOLDEN_SCALE["default"]
    )
    factory = AppFactory(_StreamApp, nit=nit)
    counting = CountingRuntime()
    factory.make(runtime=counting).run()
    points = np.unique(
        np.linspace(
            (counting.window_begin or 0) + 1, counting.counter, n_points,
            dtype=np.int64,
        )
    )
    assert points.size >= 100  # the regime the golden pass is specified for
    return factory, points


def _produce_images(factory, points, golden: bool) -> int:
    """One instrumented run + materialization of every crash image."""
    rt = (Runtime if golden else LegacyRuntime)(plan=PersistencePlan.none(), crash_points=points)
    factory.make(runtime=rt).run()
    if golden:
        return sum(1 for _ in rt.golden_store().snapshots())
    return len(rt.snapshots)


def test_golden_snapshot_speedup(stream_setup):
    """The golden pass must beat legacy snapshot production >= 5x at
    >= 100 crash points (measured margin is 10-18x across scales)."""
    factory, points = stream_setup
    _produce_images(factory, points, True)  # warm both paths
    _produce_images(factory, points, False)

    t0 = time.perf_counter()
    _produce_images(factory, points, False)
    t_legacy = time.perf_counter() - t0

    t0 = time.perf_counter()
    _produce_images(factory, points, True)
    t_golden = time.perf_counter() - t0

    assert t_golden * 5 < t_legacy, (
        f"golden pass {t_golden:.3f}s not >=5x faster than legacy "
        f"{t_legacy:.3f}s at {points.size} crash points"
    )
