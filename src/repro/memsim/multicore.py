"""Multi-core cache simulation with MESI-lite coherence (extension).

The paper evaluates both single- and multi-threaded configurations and
reports identical conclusions; this module provides the multi-core
substrate: per-core private L1 caches over a shared, inclusive LLC with
invalidation-based coherence.

:class:`MulticoreHierarchy` is a :class:`~repro.memsim.hierarchy.CacheHierarchy`
whose top level is per-core: ``levels = [L1.0, ..., L1.n-1, LLC]``, and the
issuing core is the ``core`` attribute.  Only the coherent access round is
its own; the NVM side (write-back routing and accounting, non-temporal
stores, flush, drain, crash, residency) is the single-core hierarchy's.
Contract: with one core it *is* the two-level hierarchy ``(L1, LLC)`` --
same NVM write-back stream, residency and every counter, ``L1.0`` standing
for ``L1`` (``tests/memsim/test_multicore.py`` checks it differentially).

MESI-lite semantics (value flow is exact because the heap's architectural
arrays always hold the latest data; the protocol tracks *where* dirtiness
lives):

* a core's **read miss** downgrades a remote MODIFIED copy: the owner's
  dirty bit moves to the shared LLC, both cores end with clean copies;
* a core's **write** invalidates all remote copies (remote dirtiness
  merges into the LLC copy) and leaves the writer's L1 copy MODIFIED;
* dirty L1 victims spill their dirty bit into the LLC (inclusive);
* only LLC evictions/flushes write NVM, back-invalidating every L1 and
  merging any private dirtiness — so a crash loses *all* cores' unflushed
  stores, exactly the exposure the paper studies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.memsim.hierarchy import CacheHierarchy, WritebackSink
from repro.memsim.rounds import iter_rounds_contiguous

__all__ = ["MulticoreHierarchy"]


class MulticoreHierarchy(CacheHierarchy):
    """N private L1 caches over one shared inclusive LLC; accesses are
    issued by core ``core`` (set it before accessing)."""

    def __init__(
        self,
        n_cores: int,
        l1: CacheLevelConfig,
        llc: CacheLevelConfig,
        writeback_sink: WritebackSink | None = None,
    ):
        if n_cores < 1:
            raise ConfigError("need at least one core")
        super().__init__(HierarchyConfig((l1, llc)), writeback_sink)
        first_l1, shared = self.levels
        self.n_cores = n_cores
        self.l1s = [first_l1, *(SetAssociativeCache(l1) for _ in range(n_cores - 1))]
        self.levels = [*self.l1s, shared]
        self.stats.per_level = {f"L1.{c}": l1c.stats for c, l1c in enumerate(self.l1s)}
        self.stats.per_level["LLC"] = shared.stats
        self.core = 0

    def _merge_into_llc(self, blocks: np.ndarray) -> None:
        """Move private dirtiness into the inclusive LLC copy (a block the
        LLC lacks goes straight to NVM, semantically the same merge)."""
        if blocks.size:
            missing = self.llc.mark_dirty(blocks)
            self._writeback(blocks[missing], "evict")

    # -- coherent access -------------------------------------------------------

    def _access_round(self, blocks: np.ndarray, write: bool) -> None:
        core = self.core
        me = self.l1s[core]
        llc = self.llc
        present, way = me.lookup(blocks)
        if write:
            me.stats.write_accesses += int(blocks.size)
            me.stats.write_hits += int(present.sum())
            # Invalidate every remote copy; remote dirtiness merges into
            # the (inclusive) LLC copy.
            for c, other in enumerate(self.l1s):
                if c != core:
                    was_present, was_dirty = other.remove(blocks)
                    self._merge_into_llc(blocks[was_present & was_dirty])
        else:
            me.stats.read_accesses += int(blocks.size)
            me.stats.read_hits += int(present.sum())
        me.refresh(blocks[present], way[present], set_dirty=write)

        miss = blocks[~present]
        if miss.size == 0:
            return
        llc_present, llc_way = llc.lookup(miss)
        if write:
            llc.stats.write_accesses += int(miss.size)
            llc.stats.write_hits += int(llc_present.sum())
        else:
            llc.stats.read_accesses += int(miss.size)
            llc.stats.read_hits += int(llc_present.sum())
            # Read miss: downgrade any remote MODIFIED owner (its dirty
            # bit moves to the LLC; the copy stays shared-clean).
            for c, other in enumerate(self.l1s):
                if c != core:
                    _present, was_dirty = other.clean(miss)
                    self._merge_into_llc(miss[was_dirty])
        llc.refresh(miss[llc_present], llc_way[llc_present], set_dirty=False)
        absent = miss[~llc_present]
        self.stats.nvm_fills += int(absent.size)
        vt, vd = llc.install(absent, dirty=False)
        self._route_victims(len(self.levels) - 1, vt, vd)
        vt, vd = me.install(miss, dirty=write)
        self._merge_into_llc(vt[vd])

    def access(self, block_lo: int, block_hi: int, write: bool) -> None:
        """Core ``core`` accesses the contiguous block range, in order
        (every round, including L1 hits, may have to invalidate remote
        copies, so there is no batched hit prefix)."""
        for rnd in iter_rounds_contiguous(block_lo, block_hi, self._round):
            self._access_round(rnd, write)
