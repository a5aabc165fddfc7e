"""Cache configuration validation."""

import pytest

from repro.errors import ConfigError
from repro.memsim.config import CacheLevelConfig, HierarchyConfig


def test_valid_level():
    lv = CacheLevelConfig("L1", 32 * 1024, 8)
    assert lv.num_sets == 64
    assert lv.num_blocks == 512


def test_size_not_divisible():
    with pytest.raises(ConfigError):
        CacheLevelConfig("L1", 100, 3)


def test_sets_must_be_power_of_two():
    # 3 sets: 3 * 4 ways * 64 B
    with pytest.raises(ConfigError):
        CacheLevelConfig("L1", 3 * 4 * 64, 4)


def test_nonpositive_rejected():
    with pytest.raises(ConfigError):
        CacheLevelConfig("L1", 0, 8)
    with pytest.raises(ConfigError):
        CacheLevelConfig("L1", 1024, 0)


def test_hierarchy_ordering_enforced():
    big = CacheLevelConfig("L1", 64 * 1024, 8)
    small = CacheLevelConfig("L2", 32 * 1024, 8)
    with pytest.raises(ConfigError):
        HierarchyConfig((big, small))


def test_hierarchy_block_size_consistency():
    # Every level models 64-byte lines; any other block size is refused
    # when the level is built, so a hierarchy cannot mix sizes.
    assert CacheLevelConfig("L1", 32 * 1024, 8, block_size=64).block_size == 64
    for size in (32, 128):
        with pytest.raises(ConfigError, match=f"block size {size} B"):
            CacheLevelConfig("L2", 64 * 1024, 8, block_size=size)


def test_hierarchy_needs_a_level():
    with pytest.raises(ConfigError):
        HierarchyConfig(())


def test_presets():
    for cfg in (
        HierarchyConfig.scaled_llc(),
        HierarchyConfig.scaled_three_level(),
        HierarchyConfig.paper_like(),
    ):
        assert cfg.llc is cfg.levels[-1]
        assert all(lv.block_size == 64 for lv in cfg.levels)
        assert cfg.min_sets >= 1


def test_scaled_llc_default_regime():
    cfg = HierarchyConfig.scaled_llc()
    assert cfg.llc.size_bytes == 640 * 1024
    assert cfg.llc.ways == 10
