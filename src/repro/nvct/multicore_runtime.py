"""Multi-core instrumented runtime (extension).

The paper evaluates single- and multi-threaded configurations and reports
the same conclusions.  This runtime routes managed-array accesses through
a :class:`~repro.memsim.multicore.MulticoreHierarchy` (per-core L1s over a
shared LLC with MESI-lite coherence).  Applications express data
parallelism with :meth:`on_core` / :meth:`parallel_chunks`: work inside
the scope is attributed to one simulated core, so per-core private caches
see only that core's shard of the traffic.

The simulation serializes the cores' accesses in program order (a legal
interleaving of a fork-join data-parallel execution); the crash-point
counter spans all cores, so a crash can strike any core's shard mid-way —
and, as on real hardware, loses *every* core's unflushed dirty lines.
Crash images come from the same golden-pass recorder as the single-core
runtime's, and everything but the hierarchy is :class:`Runtime`'s own:
:meth:`on_core` only sets the hierarchy's issuing ``core``.  Contract: a
one-core ``MulticoreRuntime`` over ``(l1, llc)`` records what ``Runtime``
records over the two-level hierarchy ``(l1, llc)`` -- the same persist
events, crash images and counters.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.errors import ConfigError
from repro.memsim.config import CacheLevelConfig
from repro.memsim.multicore import MulticoreHierarchy
from repro.nvct.heap import PersistentHeap
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import Runtime

__all__ = ["MulticoreRuntime"]


class MulticoreRuntime(Runtime):
    """Runtime over a coherent multi-core cache model."""

    def __init__(
        self,
        n_cores: int = 4,
        l1: CacheLevelConfig | None = None,
        llc: CacheLevelConfig | None = None,
        plan: PersistencePlan | None = None,
        crash_points: np.ndarray | list[int] | None = None,
        capture_consistent: bool = False,
    ) -> None:
        super().__init__(
            hierarchy=None,
            plan=plan,
            crash_points=crash_points,
            capture_consistent=capture_consistent,
        )
        self.n_cores = n_cores
        self._l1_cfg = l1 or CacheLevelConfig("L1", 32 * 1024, 8)
        self._llc_cfg = llc or CacheLevelConfig("LLC", 640 * 1024, 10)

    # -- wiring -----------------------------------------------------------------

    def _build_hierarchy(self, heap: PersistentHeap) -> MulticoreHierarchy:
        # Runtime.attach_heap wires the golden recorder on top, exactly as
        # for the single-core hierarchy.
        return MulticoreHierarchy(
            self.n_cores, self._l1_cfg, self._llc_cfg, writeback_sink=heap.writeback_blocks
        )

    # -- core scoping -------------------------------------------------------------

    @contextmanager
    def on_core(self, core: int) -> Iterator[None]:
        """Attribute accesses inside the scope to ``core``."""
        if not 0 <= core < self.n_cores:
            raise ConfigError(f"core {core} out of range")
        _, hier = self._require()
        assert isinstance(hier, MulticoreHierarchy)  # built by _build_hierarchy
        prev = hier.core
        hier.core = core
        try:
            yield
        finally:
            hier.core = prev

    def parallel_chunks(self, n_items: int) -> list[tuple[int, slice]]:
        """Static (OpenMP-style) partition of ``n_items`` across cores:
        returns ``(core, slice)`` pairs in execution order."""
        bounds = np.linspace(0, n_items, self.n_cores + 1).astype(int)
        return [
            (c, slice(int(bounds[c]), int(bounds[c + 1])))
            for c in range(self.n_cores)
            if bounds[c + 1] > bounds[c]
        ]
