"""Cache/NVM memory simulation substrate (the core of NVCT).

This package provides the machinery the paper's PIN-based NVCT tool
provides natively: a set-associative, write-back, write-allocate, LRU
cache hierarchy simulated at 64-byte cache-block granularity, plus the
semantics of the x86 cache-flush instructions (CLFLUSH / CLFLUSHOPT /
CLWB) and event counters for NVM write traffic.

The simulator is *value-aware* through :class:`repro.nvct.heap.PersistentHeap`:
whenever a dirty block leaves the last-level cache (eviction or flush) the
heap copies the block's current architectural bytes into the NVM image, so
cache/memory inconsistency at a crash is directly observable.
"""

from repro.memsim.blocks import BLOCK_SIZE, block_span, bytes_to_blocks
from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.hierarchy import CacheHierarchy
from repro.memsim.stats import CacheStats, MemoryStats

__all__ = [
    "BLOCK_SIZE",
    "block_span",
    "bytes_to_blocks",
    "CacheLevelConfig",
    "HierarchyConfig",
    "SetAssociativeCache",
    "CacheHierarchy",
    "CacheStats",
    "MemoryStats",
]
