"""Cache hierarchy configuration.

The paper's evaluation hierarchy (Table 3 / Sec. 4.1) is a Xeon Gold
6126-like three-level hierarchy.  We provide both a paper-like full
hierarchy and a scaled-down single-level configuration used by default in
the crash campaigns: with scaled-down workloads, what matters is that the
application footprint exceeds the simulated LLC by the same ratio as in
the paper, and that persistence is governed by the (inclusive) LLC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.memsim.blocks import BLOCK_SIZE

__all__ = ["CacheLevelConfig", "HierarchyConfig"]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheLevelConfig:
    """One set-associative cache level."""

    name: str
    size_bytes: int
    ways: int
    block_size: int = BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ConfigError(f"{self.name}: size and ways must be positive")
        if self.block_size != BLOCK_SIZE:
            # The heap, the runtime's byte -> block math and the golden
            # row log all model BLOCK_SIZE-byte lines.
            raise ConfigError(
                f"{self.name}: block size {self.block_size} B is not supported "
                f"(every level uses {BLOCK_SIZE}-byte lines)"
            )
        if self.size_bytes % (self.ways * self.block_size) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*block ({self.ways}*{self.block_size})"
            )
        if not _is_pow2(self.num_sets):
            raise ConfigError(
                f"{self.name}: number of sets ({self.num_sets}) must be a power of two"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.block_size)

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size


@dataclass(frozen=True)
class HierarchyConfig:
    """An inclusive multi-level hierarchy, listed from L1 to LLC."""

    levels: tuple[CacheLevelConfig, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigError("hierarchy needs at least one level")
        sizes = [lv.size_bytes for lv in self.levels]
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("levels must be ordered small (L1) to large (LLC)")

    @property
    def llc(self) -> CacheLevelConfig:
        return self.levels[-1]

    @property
    def min_sets(self) -> int:
        return min(lv.num_sets for lv in self.levels)

    @staticmethod
    def scaled_llc(size_bytes: int = 640 * 1024, ways: int = 10) -> "HierarchyConfig":
        """Single-level scaled LLC used by default in crash campaigns.

        640 KB against ~1-4 MB mini-app footprints reproduces the regime the
        paper studies: streaming traffic forces steady write-back of cold
        data while hot, re-read data objects stay partially cache-resident
        (and thus stale in NVM) across iterations unless explicitly flushed.
        """
        return HierarchyConfig((CacheLevelConfig("LLC", size_bytes, ways),))

    @staticmethod
    def paper_like() -> "HierarchyConfig":
        """Xeon Gold 6126-like hierarchy.

        The paper lists 32 KB/8-way L1, 1 MB/12-way L2, 19.25 MB/11-way L3.
        The L2/L3 set counts are not powers of two; we use the nearest
        power-of-two-set equivalents (1 MB/16-way, 16 MB/16-way), which
        keeps capacity/associativity in the same regime.
        """
        return HierarchyConfig(
            (
                CacheLevelConfig("L1", 32 * 1024, 8),
                CacheLevelConfig("L2", 1024 * 1024, 16),
                CacheLevelConfig("L3", 16 * 1024 * 1024, 16),
            )
        )

    @staticmethod
    def scaled_three_level() -> "HierarchyConfig":
        """Three-level hierarchy scaled down to match mini-app footprints."""
        return HierarchyConfig(
            (
                CacheLevelConfig("L1", 4 * 1024, 4),
                CacheLevelConfig("L2", 32 * 1024, 8),
                CacheLevelConfig("L3", 128 * 1024, 8),
            )
        )
