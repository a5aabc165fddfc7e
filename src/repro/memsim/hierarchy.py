"""Inclusive multi-level cache hierarchy, vectorized.

Semantics (validated against the test-tree oracle
``tests/memsim/reference_oracle.py`` (``ReferenceHierarchy``) by
property-based tests):

* write-back, write-allocate at every level;
* inclusive: a block resident at level *i* is resident at every level below;
* store dirtiness lands in L1; dirty L1 victims spill their dirty bit into
  L2, and so on; only blocks leaving the *LLC* (eviction, flush, drain)
  reach NVM;
* LLC evictions back-invalidate upper levels and merge their dirtiness
  (as real inclusive hierarchies do via snooping);
* flush instructions operate on all levels at once; ``invalidate=True``
  models CLFLUSH/CLFLUSHOPT (line leaves the cache), ``False`` models CLWB
  (line retained clean).

Accesses are processed in *rounds* of block ids with pairwise-distinct
sets at the smallest level (set counts are powers of two, so distinctness
at the smallest level implies it everywhere), which makes per-set LRU
order exact while every update is a NumPy slab operation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import HierarchyConfig
from repro.memsim.rounds import iter_rounds_contiguous, iter_rounds_generic
from repro.memsim.stats import MemoryStats

__all__ = ["CacheHierarchy"]

WritebackSink = Callable[[np.ndarray], None]

_FLUSH_CHUNK = 8192  # blocks per flush lookup slab (memory bound, not exactness)


class CacheHierarchy:
    """Multi-level inclusive cache with an NVM write-back sink.

    ``writeback_sink`` is called, in event order, with arrays of block ids
    whose dirty data is being written to NVM; the persistent heap uses it
    to copy architectural bytes into the NVM image at exactly that moment.
    """

    def __init__(self, config: HierarchyConfig, writeback_sink: WritebackSink | None = None):
        self.config = config
        self.levels = [SetAssociativeCache(lv) for lv in config.levels]
        self.stats = MemoryStats(
            per_level={lv.name: c.stats for lv, c in zip(config.levels, self.levels)}
        )
        self._sink = writeback_sink
        self._round = config.min_sets

    # -- NVM write routing --------------------------------------------------

    def _writeback(self, blocks: np.ndarray, source: str) -> None:
        if blocks.size == 0:
            return
        n = int(blocks.size)
        self.stats.nvm_writes += n
        if source == "evict":
            self.stats.nvm_writes_from_evictions += n
        elif source == "flush":
            self.stats.nvm_writes_from_flushes += n
        elif source == "nt":
            self.stats.nvm_writes_from_nt += n
        else:
            self.stats.nvm_writes_from_drain += n
        self.stats.nvm_writeback_events += 1
        if self._sink is not None:
            self._sink(blocks)

    def _route_victims(self, level_idx: int, vtags: np.ndarray, vdirty: np.ndarray) -> None:
        if vtags.size == 0:
            return
        if level_idx == len(self.levels) - 1:
            # LLC eviction: back-invalidate uppers, merge dirtiness, persist.
            dirty_any = vdirty.copy()
            for up in self.levels[:-1]:
                _present, was_dirty = up.remove(vtags)
                dirty_any |= was_dirty
            self._writeback(vtags[dirty_any], "evict")
        else:
            # Mid-level eviction: inclusivity demands the victim leave the
            # upper levels too; merge their dirtiness before spilling down.
            dirty_any = vdirty.copy()
            for up in self.levels[:level_idx]:
                _present, was_dirty = up.remove(vtags)
                dirty_any |= was_dirty
            spill = vtags[dirty_any]
            if spill.size:
                missing = self.levels[level_idx + 1].mark_dirty(spill)
                # Inclusivity makes this empty in practice; spill any
                # stragglers straight to NVM (semantically a merge).
                self._writeback(spill[missing], "evict")

    # -- access paths ---------------------------------------------------------

    def _access_round(self, blocks: np.ndarray, write: bool) -> None:
        n_levels = len(self.levels)
        hit_level = np.full(blocks.size, n_levels, dtype=np.int64)
        undecided = np.arange(blocks.size)
        for li, lv in enumerate(self.levels):
            if undecided.size == 0:
                break
            sub = blocks[undecided]
            present, way = lv.lookup(sub)
            if write:
                lv.stats.write_accesses += int(sub.size)
                lv.stats.write_hits += int(present.sum())
            else:
                lv.stats.read_accesses += int(sub.size)
                lv.stats.read_hits += int(present.sum())
            hit_idx = undecided[present]
            hit_level[hit_idx] = li
            lv.refresh(blocks[hit_idx], way[present], set_dirty=(write and li == 0))
            undecided = undecided[~present]
        self.stats.nvm_fills += int(undecided.size)
        # Install bottom-up wherever the block was absent.
        for li in range(n_levels - 1, -1, -1):
            need = hit_level > li
            if not need.any():
                continue
            vt, vd = self.levels[li].install(blocks[need], dirty=(write and li == 0))
            self._route_victims(li, vt, vd)

    def access(self, block_lo: int, block_hi: int, write: bool) -> None:
        """Access the contiguous block range ``[block_lo, block_hi)``, in order."""
        for rnd in iter_rounds_contiguous(block_lo, block_hi, self._round):
            self._access_round(rnd, write)

    def access_blocks(self, blocks: np.ndarray, write: bool) -> None:
        """Access an arbitrary ordered sequence of block ids.

        The sequence is split into rounds by per-set occurrence order,
        which preserves every set's subsequence order (and is therefore
        exact for LRU state) while letting each round be vectorized.
        """
        for rnd in iter_rounds_generic(blocks, self._round):
            self._access_round(rnd, write)

    def store_nontemporal(self, blocks: np.ndarray) -> None:
        """Non-temporal (streaming) stores: write the blocks straight to
        NVM, invalidating any cached copies (MOVNT semantics).  The caller
        must have applied the store to architectural state already."""
        blocks = np.unique(np.asarray(blocks, dtype=np.int64))
        if blocks.size == 0:
            return
        for lv in self.levels:
            lv.remove(blocks)
        self._writeback(blocks, "nt")

    # -- flush / drain --------------------------------------------------------

    def flush(self, block_lo: int, block_hi: int, invalidate: bool = False) -> tuple[int, int]:
        """Flush the contiguous block range (CLWB or, with ``invalidate``,
        CLFLUSHOPT semantics).  Returns ``(blocks_issued, dirty_written)``."""
        issued = 0
        dirty_written = 0
        for start in range(block_lo, block_hi, _FLUSH_CHUNK):
            stop = min(start + _FLUSH_CHUNK, block_hi)
            blocks = np.arange(start, stop, dtype=np.int64)
            dirty_written += self._flush_blocks_chunk(blocks, invalidate)
            issued += int(blocks.size)
        return issued, dirty_written

    def flush_blocks(self, blocks: np.ndarray, invalidate: bool = False) -> tuple[int, int]:
        """Flush an arbitrary array of distinct block ids."""
        blocks = np.asarray(blocks, dtype=np.int64)
        issued = 0
        dirty_written = 0
        for start in range(0, blocks.size, _FLUSH_CHUNK):
            chunk = blocks[start : start + _FLUSH_CHUNK]
            dirty_written += self._flush_blocks_chunk(chunk, invalidate)
            issued += int(chunk.size)
        return issued, dirty_written

    def _flush_blocks_chunk(self, blocks: np.ndarray, invalidate: bool) -> int:
        if blocks.size == 0:
            return 0
        llc = self.levels[-1]
        llc.stats.flush_issued += int(blocks.size)
        dirty_any = np.zeros(blocks.size, dtype=bool)
        present_any = np.zeros(blocks.size, dtype=bool)
        for lv in self.levels:
            if invalidate:
                present, was_dirty = lv.remove(blocks)
            else:
                present, was_dirty = lv.clean(blocks)
            dirty_any |= was_dirty
            present_any |= present
        llc.stats.flush_dirty_hits += int(dirty_any.sum())
        llc.stats.flush_clean_hits += int((present_any & ~dirty_any).sum())
        self._writeback(blocks[dirty_any], "flush")
        return int(dirty_any.sum())

    def writeback_all(self) -> int:
        """Drain every dirty line to NVM (checkpoint barrier / end of run)."""
        dirty: np.ndarray | None = None
        for lv in self.levels:
            b = lv.writeback_all()
            dirty = b if dirty is None else np.union1d(dirty, b)
        assert dirty is not None
        self._writeback(dirty, "drain")
        return int(dirty.size)

    def invalidate_all(self) -> None:
        """Drop all cache contents *without* writing anything back.

        This is what a crash does to volatile caches.
        """
        for lv in self.levels:
            lv.invalidate_all()

    # -- analysis -------------------------------------------------------------

    def resident_dirty_blocks(self) -> np.ndarray:
        """Union of dirty blocks across all levels (postmortem analysis).

        One concatenate + one ``np.unique`` instead of a pairwise
        ``union1d`` chain: this runs per persist event when analysis
        listeners are attached, so it is mildly hot."""
        return np.unique(np.concatenate([lv.dirty_tags() for lv in self.levels]))

    @property
    def llc(self) -> SetAssociativeCache:
        return self.levels[-1]
