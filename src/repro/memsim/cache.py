"""Vectorized set-associative LRU cache level.

The simulator processes *rounds*: arrays of block ids that map to pairwise
distinct sets.  Because LRU state is independent per set, any grouping of
an access sequence that preserves each set's subsequence order is exact;
rounds let every update be a handful of NumPy operations instead of a
Python loop per access.

State per (set, way): ``tags`` (block id, -1 invalid), ``dirty`` flag, and
a monotonically increasing ``stamp`` used for LRU victim choice (invalid
ways carry stamp -1 so they are always preferred victims).

Lookups go through an inverse index, ``_where[block] = way`` (-1 when the
block is absent), one small integer per block id.  A block's set is a
function of its id, so ``(block & set_mask, _where[block])`` names its
slot, and a lookup is one gather instead of a ``[n, ways]`` tag compare.
The index changes only where residency does -- ``install`` (victims to -1,
installed blocks to their way), ``remove`` and ``invalidate_all`` -- and
grows on demand to the largest installed id.  Its last entry is a
sentinel that no resident block reaches, so ids past the end gather
(clipped) as absent.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.config import CacheLevelConfig
from repro.memsim.stats import CacheStats

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache:
    """One cache level; all round arguments must have pairwise-distinct sets."""

    def __init__(self, config: CacheLevelConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._set_mask = self.num_sets - 1
        self.tags = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self.dirty = np.zeros((self.num_sets, self.ways), dtype=bool)
        self.stamp = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self._clock = 0
        # Smallest signed type that holds every way index and -1.
        self._where = np.full(1, -1, dtype=np.min_scalar_type(-self.ways))
        self.stats = CacheStats()

    # -- pure queries ------------------------------------------------------

    def sets_of(self, blocks: np.ndarray) -> np.ndarray:
        return blocks & self._set_mask

    def lookup(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Presence mask and hit way (-1 when absent) for each block (no
        state change)."""
        way = self._where.take(blocks, mode="clip")
        return way >= 0, way

    def contains(self, blocks: np.ndarray) -> np.ndarray:
        present, _ = self.lookup(np.asarray(blocks, dtype=np.int64))
        return present

    def dirty_tags(self) -> np.ndarray:
        """Unsorted block ids of dirty resident lines (cheap union input)."""
        return self.tags[self.dirty & (self.tags >= 0)]

    def resident_dirty_blocks(self) -> np.ndarray:
        """Sorted block ids currently resident and dirty at this level."""
        return np.sort(self.dirty_tags())

    def resident_blocks(self) -> np.ndarray:
        return np.sort(self.tags[self.tags >= 0])

    # -- state transitions (round granularity) -----------------------------

    def refresh(
        self, blocks: np.ndarray, ways: np.ndarray, set_dirty: bool, round_size: int = 0
    ) -> None:
        """LRU-refresh hit blocks; optionally mark them dirty (store hit).

        With ``round_size``, ``blocks`` are consecutive rounds of that many
        blocks (the last may be shorter) and each round takes its own clock
        tick, exactly as one ``refresh`` per round would."""
        if blocks.size == 0:
            return
        sets = self.sets_of(blocks)
        if round_size:
            self.stamp[sets, ways] = self._clock + 1 + np.arange(blocks.size) // round_size
            self._clock += -(-blocks.size // round_size)
        else:
            self._clock += 1
            self.stamp[sets, ways] = self._clock
        if set_dirty:
            self.dirty[sets, ways] = True

    def install(self, blocks: np.ndarray, dirty: bool) -> tuple[np.ndarray, np.ndarray]:
        """Insert missing blocks, evicting LRU victims.

        Returns ``(victim_tags, victim_dirty)`` for the *valid* victims
        displaced by the installs.  Callers are responsible for routing
        dirty victims (to the next level or to NVM).
        """
        if blocks.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, np.empty(0, dtype=bool)
        sets = self.sets_of(blocks)
        victim_way = self.stamp[sets].argmin(axis=1)
        vt = self.tags[sets, victim_way]
        vd = self.dirty[sets, victim_way]
        valid = vt >= 0
        self._clock += 1
        top = int(blocks.max()) + 2
        if top > self._where.size:
            grown = np.full(max(top, 2 * self._where.size), -1, dtype=self._where.dtype)
            grown[: self._where.size] = self._where
            self._where = grown
        self._where[vt[valid]] = -1
        self._where[blocks] = victim_way
        self.tags[sets, victim_way] = blocks
        self.dirty[sets, victim_way] = dirty
        self.stamp[sets, victim_way] = self._clock
        self.stats.evictions += int(valid.sum())
        self.stats.dirty_evictions += int((valid & vd).sum())
        return vt[valid], vd[valid]

    def remove(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Invalidate the given blocks if present (back-invalidation/CLFLUSH).

        Returns ``(present_mask, was_dirty)`` aligned with ``blocks``.
        """
        present, way = self.lookup(blocks)
        was_dirty = np.zeros_like(present)
        if present.any():
            sets = self.sets_of(blocks[present])
            w = way[present]
            was_dirty[present] = self.dirty[sets, w]
            self.tags[sets, w] = -1
            self.dirty[sets, w] = False
            self.stamp[sets, w] = -1
            self._where[blocks[present]] = -1
            self.stats.invalidations += int(present.sum())
        return present, was_dirty

    def clean(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Clear dirty bits of the given blocks if present (CLWB semantics).

        Returns ``(present_mask, was_dirty)`` aligned with ``blocks``.
        """
        present, way = self.lookup(blocks)
        was_dirty = np.zeros_like(present)
        if present.any():
            sets = self.sets_of(blocks[present])
            w = way[present]
            was_dirty[present] = self.dirty[sets, w]
            self.dirty[sets, w] = False
        return present, was_dirty

    def mark_dirty(self, blocks: np.ndarray) -> np.ndarray:
        """Set dirty bits for blocks written back from an upper level.

        Returns the mask of blocks *not* found (caller must spill them to
        the next level / NVM).
        """
        present, way = self.lookup(blocks)
        if present.any():
            sets = self.sets_of(blocks[present])
            self.dirty[sets, way[present]] = True
        return ~present

    def writeback_all(self) -> np.ndarray:
        """Clean every dirty line; return their block ids (sorted)."""
        mask = self.dirty & (self.tags >= 0)
        blocks = np.sort(self.tags[mask])
        self.dirty[:, :] = False
        return blocks

    def invalidate_all(self) -> None:
        self.tags[:, :] = -1
        self.dirty[:, :] = False
        self.stamp[:, :] = -1
        self._where[:] = -1
