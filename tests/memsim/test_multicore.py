"""Multi-core MESI-lite coherence."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.memsim.config import CacheLevelConfig
from repro.memsim.multicore import MulticoreHierarchy


def make(n_cores=2, l1_sets=2, l1_ways=2, llc_sets=8, llc_ways=2, sink=None):
    return MulticoreHierarchy(
        n_cores,
        CacheLevelConfig("L1", l1_sets * l1_ways * 64, l1_ways),
        CacheLevelConfig("LLC", llc_sets * llc_ways * 64, llc_ways),
        writeback_sink=sink,
    )


class Recorder:
    def __init__(self):
        self.events = []

    def __call__(self, blocks):
        self.events.extend(int(b) for b in blocks)


def test_config_validation():
    with pytest.raises(ConfigError):
        make(n_cores=0)
    with pytest.raises(ConfigError):
        MulticoreHierarchy(
            1,
            CacheLevelConfig("L1", 64 * 64, 8),
            CacheLevelConfig("LLC", 8 * 64, 2),
        )


def test_write_invalidates_remote_copies():
    h = make()
    h.access(0, 0, 1, write=False)
    h.access(1, 0, 1, write=False)
    assert h.l1s[0].contains(np.array([0])).any()
    assert h.l1s[1].contains(np.array([0])).any()
    h.access(0, 0, 1, write=True)
    assert h.l1s[0].contains(np.array([0])).any()
    assert not h.l1s[1].contains(np.array([0])).any()
    assert h.dirty_owner(0) == "L1.0"


def test_read_downgrades_modified_owner():
    h = make()
    h.access(0, 0, 1, write=True)  # core 0 owns MODIFIED
    h.access(1, 0, 1, write=False)  # core 1 reads
    # Dirtiness moved to the shared LLC; both copies are clean.
    assert h.dirty_owner(0) == "LLC"
    assert h.l1s[0].contains(np.array([0])).any()
    assert h.l1s[1].contains(np.array([0])).any()


def test_at_most_one_modified_copy():
    h = make(n_cores=3)
    for core in (0, 1, 2, 1, 0):
        h.access(core, 0, 1, write=True)
        h.dirty_owner(0)  # raises on violation


def test_remote_dirty_merges_on_write():
    rec = Recorder()
    h = make(sink=rec)
    h.access(0, 0, 1, write=True)
    h.access(1, 0, 1, write=True)  # invalidates core 0's dirty copy
    # No NVM write yet: the dirtiness merged into the LLC (or moved with
    # the new owner).
    assert h.dirty_owner(0) in ("L1.1",)
    h.writeback_all()
    assert 0 in rec.events


def test_llc_eviction_back_invalidates_all_cores():
    rec = Recorder()
    h = make(l1_sets=1, l1_ways=1, llc_sets=1, llc_ways=2, sink=rec)
    h.access(0, 0, 1, write=True)
    h.access(1, 1, 2, write=False)
    h.access(0, 2, 3, write=False)  # LLC set full -> evicts block 0
    assert not h.l1s[0].contains(np.array([0])).any()
    assert 0 in rec.events  # dirty data persisted on eviction


def test_crash_loses_every_cores_dirty_lines():
    rec = Recorder()
    h = make(sink=rec)
    h.access(0, 0, 1, write=True)
    h.access(1, 4, 5, write=True)
    h.invalidate_all()
    assert rec.events == []
    assert h.resident_dirty_blocks().size == 0


def test_flush_collects_dirtiness_across_cores():
    rec = Recorder()
    h = make(sink=rec)
    h.access(0, 0, 1, write=True)
    h.access(1, 1, 2, write=True)
    issued, dirty = h.flush(0, 4)
    assert issued == 4
    assert dirty == 2
    assert sorted(rec.events) == [0, 1]


def test_single_core_behaves_like_two_level_hierarchy():
    from repro.memsim.config import HierarchyConfig
    from repro.memsim.hierarchy import CacheHierarchy

    cfg_l1 = CacheLevelConfig("L1", 2 * 2 * 64, 2)
    cfg_llc = CacheLevelConfig("LLC", 8 * 2 * 64, 2)
    rec_m, rec_s = Recorder(), Recorder()
    multi = make(n_cores=1, sink=rec_m)
    single = CacheHierarchy(HierarchyConfig((cfg_l1, cfg_llc)), writeback_sink=rec_s)
    rng = np.random.default_rng(0)
    for _ in range(200):
        b = int(rng.integers(0, 32))
        w = bool(rng.integers(0, 2))
        multi.access(0, b, b + 1, w)
        single.access(b, b + 1, w)
    assert rec_m.events == rec_s.events
    assert list(multi.resident_dirty_blocks()) == list(single.resident_dirty_blocks())


def test_shared_counter_updates_by_alternating_cores():
    # The pattern that motivates coherence: two cores ping-ponging writes
    # to one line never lose data, and NVM sees it only on flush.
    rec = Recorder()
    h = make(sink=rec)
    for i in range(10):
        h.access(i % 2, 0, 1, write=True)
    assert rec.events == []
    h.flush(0, 1)
    assert rec.events == [0]


def test_writeback_events_are_counted_like_the_single_core_hierarchy():
    # Both hierarchies count through MemoryStats.count_writeback: one event
    # per non-empty sink call, blocks split by source.
    from repro.memsim.config import HierarchyConfig
    from repro.memsim.hierarchy import CacheHierarchy

    calls = []
    h = make(sink=lambda blocks: calls.append(blocks.size))
    single = CacheHierarchy(
        HierarchyConfig((CacheLevelConfig("L1", 2 * 2 * 64, 2), CacheLevelConfig("LLC", 8 * 2 * 64, 2)))
    )
    h.access(0, 0, 8, write=True)
    single.access(0, 8, write=True)
    h.flush(0, 4)
    single.flush(0, 4)
    h.writeback_all()
    single.writeback_all()
    nvm = {k: v for k, v in h.stats.as_dict().items() if k.startswith("nvm_writes")}
    assert nvm == {
        "nvm_writes": 8,
        "nvm_writes_from_evictions": 0,
        "nvm_writes_from_flushes": 4,
        "nvm_writes_from_drain": 4,
        "nvm_writes_from_nt": 0,
    }
    assert calls == [4, 4]
    assert h.stats.nvm_writeback_events == len(calls) > 0
    nvm_single = {k: v for k, v in single.stats.as_dict().items() if k.startswith("nvm_")}
    assert {k: v for k, v in h.stats.as_dict().items() if k.startswith("nvm_")} == nvm_single
