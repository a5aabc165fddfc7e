"""Multi-core cache simulation with MESI-lite coherence (extension).

The paper evaluates both single- and multi-threaded configurations and
reports identical conclusions; this module provides the multi-core
substrate: per-core private L1 caches over a shared, inclusive LLC with
invalidation-based coherence.

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

from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import CacheLevelConfig
from repro.memsim.rounds import iter_rounds_contiguous, iter_rounds_generic
from repro.memsim.stats import MemoryStats

__all__ = ["MulticoreHierarchy"]

WritebackSink = Callable[[np.ndarray], None]


class MulticoreHierarchy:
    """N private L1 caches over one shared inclusive LLC."""

    def __init__(
        self,
        n_cores: int,
        l1: CacheLevelConfig,
        llc: CacheLevelConfig,
        writeback_sink: WritebackSink | None = None,
    ):
        if n_cores < 1:
            raise ConfigError("need at least one core")
        if llc.size_bytes < l1.size_bytes:
            raise ConfigError("LLC must be at least as large as an L1")
        self.n_cores = n_cores
        self.l1s = [SetAssociativeCache(l1) for _ in range(n_cores)]
        self.llc = SetAssociativeCache(llc)
        self.stats = MemoryStats(
            per_level={f"L1.{c}": l1c.stats for c, l1c in enumerate(self.l1s)}
        )
        self.stats.per_level["LLC"] = self.llc.stats
        self._sink = writeback_sink
        self._round = min(l1.num_sets, llc.num_sets)

    # -- NVM write routing ---------------------------------------------------

    def _writeback(self, blocks: np.ndarray, source: str) -> None:
        if blocks.size == 0:
            return
        self.stats.count_writeback(int(blocks.size), source)
        if self._sink is not None:
            self._sink(blocks)

    def store_nontemporal(self, blocks: np.ndarray) -> None:
        """Non-temporal stores: straight to NVM, invalidating every cache."""
        blocks = np.unique(np.asarray(blocks, dtype=np.int64))
        if blocks.size == 0:
            return
        for cache in (*self.l1s, self.llc):
            cache.remove(blocks)
        self._writeback(blocks, "nt")

    def _llc_install(self, blocks: np.ndarray, dirty: bool) -> None:
        vt, vd = self.llc.install(blocks, dirty)
        if vt.size == 0:
            return
        dirty_any = vd.copy()
        for l1 in self.l1s:
            _present, was_dirty = l1.remove(vt)
            dirty_any |= was_dirty
        self._writeback(vt[dirty_any], "evict")

    def _spill_l1_victims(self, vt: np.ndarray, vd: np.ndarray) -> None:
        spill = vt[vd]
        if spill.size:
            missing = self.llc.mark_dirty(spill)
            self._writeback(spill[missing], "evict")

    # -- coherent access -------------------------------------------------------

    def _access_round(self, core: int, blocks: np.ndarray, write: bool) -> None:
        me = self.l1s[core]
        present, way = me.lookup(blocks)
        if write:
            me.stats.write_accesses += int(blocks.size)
            me.stats.write_hits += int(present.sum())
        else:
            me.stats.read_accesses += int(blocks.size)
            me.stats.read_hits += int(present.sum())

        if write:
            # Invalidate every remote copy; remote dirtiness merges into
            # the (inclusive) LLC copy.
            for c, other in enumerate(self.l1s):
                if c == core:
                    continue
                was_present, was_dirty = other.remove(blocks)
                merged = blocks[was_present & was_dirty]
                if merged.size:
                    missing = self.llc.mark_dirty(merged)
                    self._writeback(merged[missing], "evict")
        me.refresh(blocks[present], way[present], set_dirty=write)

        miss = blocks[~present]
        if miss.size == 0:
            return
        llc_present, llc_way = self.llc.lookup(miss)
        self.llc.stats.read_accesses += int(miss.size)
        self.llc.stats.read_hits += int(llc_present.sum())
        if not write:
            # Read miss: downgrade any remote MODIFIED owner (its dirty
            # bit moves to the LLC; the copy stays shared-clean).
            for c, other in enumerate(self.l1s):
                if c == core:
                    continue
                owner_present, owner_way = other.lookup(miss)
                owned = miss[owner_present]
                if owned.size:
                    _p, was_dirty = other.clean(owned)
                    dirty_owned = owned[was_dirty]
                    if dirty_owned.size:
                        missing = self.llc.mark_dirty(dirty_owned)
                        self._writeback(dirty_owned[missing], "evict")
        # Fill the LLC for blocks absent there.
        absent = miss[~llc_present]
        self.stats.nvm_fills += int(absent.size)
        if absent.size:
            self._llc_install(absent, dirty=False)
        else:
            self.llc.refresh(miss[llc_present], llc_way[llc_present], set_dirty=False)
        # Install into the requesting L1.
        vt, vd = me.install(miss, dirty=write)
        self._spill_l1_victims(vt, vd)

    def access(self, core: int, block_lo: int, block_hi: int, write: bool) -> None:
        """Core ``core`` accesses the contiguous block range, in order."""
        for rnd in iter_rounds_contiguous(block_lo, block_hi, self._round):
            self._access_round(core, rnd, write)

    def access_blocks(self, core: int, blocks: np.ndarray, write: bool) -> None:
        for rnd in iter_rounds_generic(blocks, self._round):
            self._access_round(core, rnd, write)

    # -- persistence -----------------------------------------------------------

    def flush(self, block_lo: int, block_hi: int, invalidate: bool = False) -> tuple[int, int]:
        blocks = np.arange(block_lo, block_hi, dtype=np.int64)
        return self.flush_blocks(blocks, invalidate)

    def flush_blocks(self, blocks: np.ndarray, invalidate: bool = False) -> tuple[int, int]:
        blocks = np.asarray(blocks, dtype=np.int64)
        self.llc.stats.flush_issued += int(blocks.size)
        dirty_any = np.zeros(blocks.size, dtype=bool)
        for cache in (*self.l1s, self.llc):
            if invalidate:
                _present, was_dirty = cache.remove(blocks)
            else:
                _present, was_dirty = cache.clean(blocks)
            dirty_any |= was_dirty
        self.llc.stats.flush_dirty_hits += int(dirty_any.sum())
        self._writeback(blocks[dirty_any], "flush")
        return int(blocks.size), int(dirty_any.sum())

    def writeback_all(self) -> int:
        dirty: np.ndarray | None = None
        for cache in (*self.l1s, self.llc):
            b = cache.writeback_all()
            dirty = b if dirty is None else np.union1d(dirty, b)
        assert dirty is not None
        self._writeback(dirty, "drain")
        return int(dirty.size)

    def invalidate_all(self) -> None:
        """A crash: every core's caches and the LLC lose their contents."""
        for cache in (*self.l1s, self.llc):
            cache.invalidate_all()

    # -- analysis ---------------------------------------------------------------

    def resident_dirty_blocks(self) -> np.ndarray:
        out: np.ndarray | None = None
        for cache in (*self.l1s, self.llc):
            b = cache.resident_dirty_blocks()
            out = b if out is None else np.union1d(out, b)
        assert out is not None
        return out

    def dirty_owner(self, block: int) -> str | None:
        """Which cache holds the block MODIFIED (coherence invariant:
        at most one private owner)."""
        owners = [
            f"L1.{c}"
            for c, l1 in enumerate(self.l1s)
            if l1.contains(np.array([block])).any()
            and block in l1.resident_dirty_blocks()
        ]
        if len(owners) > 1:
            raise AssertionError(f"coherence violation: {owners}")
        if owners:
            return owners[0]
        if block in self.llc.resident_dirty_blocks():
            return "LLC"
        return None
