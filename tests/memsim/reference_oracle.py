"""Slow, dictionary-based reference cache model.

A direct, one-block-at-a-time implementation of the inclusive write-back
write-allocate LRU hierarchy, following the canonical round-phase
serialization documented in :mod:`repro.memsim.rounds`.  It is a test
oracle, so it lives in the test tree: the property-based tests drive
identical access sequences through this model and through the vectorized
:class:`repro.memsim.hierarchy.CacheHierarchy` and require identical
final state and NVM write-back event streams.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.memsim.rounds import iter_rounds_contiguous, iter_rounds_generic

__all__ = ["ReferenceCache", "ReferenceHierarchy", "reference_survivor_plan"]


class ReferenceCache:
    """One level: each set is an ``OrderedDict`` block -> dirty flag, ordered
    least- to most-recently used."""

    def __init__(self, config: CacheLevelConfig):
        self.config = config
        self.sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    def _set(self, block: int) -> OrderedDict[int, bool]:
        return self.sets[block % self.config.num_sets]

    def contains(self, block: int) -> bool:
        return block in self._set(block)

    def is_dirty(self, block: int) -> bool:
        return self._set(block).get(block, False)

    def touch(self, block: int, dirty: bool) -> bool:
        """Refresh an existing block; returns True when it was present."""
        s = self._set(block)
        if block not in s:
            return False
        s.move_to_end(block)
        if dirty:
            s[block] = True
        return True

    def install(self, block: int, dirty: bool) -> tuple[int, bool] | None:
        """Insert a block; returns the evicted ``(block, dirty)`` if any."""
        s = self._set(block)
        victim = None
        if len(s) >= self.config.ways:
            victim = s.popitem(last=False)
        s[block] = dirty
        return victim

    def remove(self, block: int) -> tuple[bool, bool]:
        s = self._set(block)
        if block in s:
            return True, s.pop(block)
        return False, False

    def clean(self, block: int) -> tuple[bool, bool]:
        s = self._set(block)
        if block in s:
            d = s[block]
            s[block] = False
            return True, d
        return False, False

    def mark_dirty(self, block: int) -> bool:
        """Returns True when the block was found (dirty bit set)."""
        s = self._set(block)
        if block in s:
            s[block] = True
            return True
        return False

    def resident_dirty_blocks(self) -> list[int]:
        return sorted(b for s in self.sets for b, d in s.items() if d)

    def resident_blocks(self) -> list[int]:
        return sorted(b for s in self.sets for b in s)


class ReferenceHierarchy:
    """Inclusive multi-level reference model mirroring CacheHierarchy.

    NVM write-backs are recorded in ``self.nvm_writebacks`` in event order.
    """

    def __init__(self, config: HierarchyConfig):
        self.config = config
        self.levels = [ReferenceCache(lv) for lv in config.levels]
        self.nvm_writebacks: list[int] = []
        self.nvm_fills = 0
        self._min_sets = config.min_sets

    def _nvm_writeback(self, block: int) -> None:
        self.nvm_writebacks.append(block)

    def _install_at(self, li: int, block: int, dirty: bool) -> None:
        victim = self.levels[li].install(block, dirty)
        if victim is None:
            return
        vblock, vdirty = victim
        if li == len(self.levels) - 1:
            # LLC eviction: back-invalidate upper levels, merge dirtiness.
            dirty_any = vdirty
            for up in self.levels[:-1]:
                present, was_dirty = up.remove(vblock)
                dirty_any = dirty_any or (present and was_dirty)
            if dirty_any:
                self._nvm_writeback(vblock)
        else:
            # Mid-level eviction: back-invalidate upper levels and merge
            # their dirtiness, then spill the dirty bit into the next level
            # (inclusive ⇒ present); spill stragglers straight to NVM.
            dirty_any = vdirty
            for up in self.levels[:li]:
                present, was_dirty = up.remove(vblock)
                dirty_any = dirty_any or (present and was_dirty)
            if dirty_any and not self.levels[li + 1].mark_dirty(vblock):
                self._nvm_writeback(vblock)

    def access_round(self, blocks: np.ndarray, write: bool) -> None:
        n = len(self.levels)
        hit_levels: list[int] = []
        for block in blocks:
            b = int(block)
            hit_level = n
            for li, lv in enumerate(self.levels):
                if lv.contains(b):
                    hit_level = li
                    break
            if hit_level == n:
                self.nvm_fills += 1
            else:
                self.levels[hit_level].touch(b, dirty=(write and hit_level == 0))
            hit_levels.append(hit_level)
        # Install phase: LLC first, then up, block order within each level.
        for li in range(n - 1, -1, -1):
            for block, h in zip(blocks, hit_levels):
                if h > li:
                    self._install_at(li, int(block), dirty=(write and li == 0))

    def access(self, block_lo: int, block_hi: int, write: bool) -> None:
        for rnd in iter_rounds_contiguous(block_lo, block_hi, self._min_sets):
            self.access_round(rnd, write)

    def access_blocks(self, blocks: np.ndarray, write: bool) -> None:
        for rnd in iter_rounds_generic(blocks, self._min_sets):
            self.access_round(rnd, write)

    def flush_blocks(self, blocks: np.ndarray, invalidate: bool = False) -> None:
        for block in blocks:
            b = int(block)
            dirty_any = False
            for lv in self.levels:
                if invalidate:
                    present, was_dirty = lv.remove(b)
                else:
                    present, was_dirty = lv.clean(b)
                dirty_any = dirty_any or (present and was_dirty)
            if dirty_any:
                self._nvm_writeback(b)

    def flush(self, block_lo: int, block_hi: int, invalidate: bool = False) -> None:
        self.flush_blocks(np.arange(block_lo, block_hi, dtype=np.int64), invalidate)

    def writeback_all(self) -> None:
        dirty: set[int] = set()
        for lv in self.levels:
            dirty.update(lv.resident_dirty_blocks())
            for s in lv.sets:
                for b in s:
                    s[b] = False
        for b in sorted(dirty):
            self._nvm_writeback(b)

    def resident_dirty_blocks(self) -> list[int]:
        dirty: set[int] = set()
        for lv in self.levels:
            dirty.update(lv.resident_dirty_blocks())
        return sorted(dirty)


def reference_survivor_plan(
    name: str,
    params: dict[str, int],
    dirty_blocks: list[int],
    store_seq: list[int],
    rng: np.random.Generator,
) -> tuple[list[int], tuple[int, int] | None]:
    """One-element-at-a-time mirror of
    :meth:`repro.memsim.crashmodel.CrashModel.survivor_plan` — the
    per-model ground truth for the property tests.

    Takes ``(model name, params, dirty block ids, aligned store sequence
    numbers, rng)`` and returns ``(blocks persisted in full, optional
    (in-flight block, surviving prefix bytes))``.  The rng draw schedule
    matches the vectorized implementation exactly: one ``integers`` draw,
    made only by the tearing models and only when an in-flight block
    exists.
    """
    from repro.memsim.blocks import BLOCK_SIZE

    pairs = sorted(zip(dirty_blocks, store_seq))
    inflight = -1
    best_seq = 0
    for block, seq in pairs:
        if seq > 0 and (seq, block) >= (best_seq, inflight):
            best_seq, inflight = seq, block

    def torn_prefix(granularity: int) -> int:
        n_granules = BLOCK_SIZE // granularity
        return int(rng.integers(0, n_granules + 1)) * granularity

    if name == "whole-cache-loss":
        return [], None
    if name == "adr":
        wpq = params["wpq"]
        rest = sorted(
            ((seq, block) for block, seq in pairs if block != inflight), reverse=True
        )
        return sorted(block for _seq, block in rest[:wpq]), None
    if name == "eadr":
        full = sorted(block for block, _seq in pairs if block != inflight)
        if inflight < 0:
            return full, None
        return full, (inflight, torn_prefix(params["granularity"]))
    if name == "torn":
        if inflight < 0:
            return [], None
        return [], (inflight, torn_prefix(params["granularity"]))
    raise ValueError(f"unknown crash model {name!r}")
