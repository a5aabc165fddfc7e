"""Multi-core MESI-lite coherence, and the one-core contract: a
``MulticoreHierarchy`` with one core is the two-level ``CacheHierarchy``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.memsim.hierarchy import CacheHierarchy
from repro.memsim.multicore import MulticoreHierarchy


def make(n_cores=2, l1_sets=2, l1_ways=2, llc_sets=8, llc_ways=2, sink=None):
    return MulticoreHierarchy(
        n_cores,
        CacheLevelConfig("L1", l1_sets * l1_ways * 64, l1_ways),
        CacheLevelConfig("LLC", llc_sets * llc_ways * 64, llc_ways),
        writeback_sink=sink,
    )


def access(h, core, block_lo, block_hi, write):
    h.core = core
    h.access(block_lo, block_hi, write)


def dirty_owner(h, block):
    """Which cache holds the block MODIFIED (coherence invariant: at most
    one private owner)."""
    owners = [f"L1.{c}" for c, l1 in enumerate(h.l1s) if block in l1.resident_dirty_blocks()]
    if len(owners) > 1:
        raise AssertionError(f"coherence violation: {owners}")
    if owners:
        return owners[0]
    if block in h.llc.resident_dirty_blocks():
        return "LLC"
    return None


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
    access(h, 0, 0, 1, write=False)
    access(h, 1, 0, 1, write=False)
    assert h.l1s[0].contains(np.array([0])).any()
    assert h.l1s[1].contains(np.array([0])).any()
    access(h, 0, 0, 1, write=True)
    assert h.l1s[0].contains(np.array([0])).any()
    assert not h.l1s[1].contains(np.array([0])).any()
    assert dirty_owner(h, 0) == "L1.0"


def test_read_downgrades_modified_owner():
    h = make()
    access(h, 0, 0, 1, write=True)  # core 0 owns MODIFIED
    access(h, 1, 0, 1, write=False)  # core 1 reads
    # Dirtiness moved to the shared LLC; both copies are clean.
    assert dirty_owner(h, 0) == "LLC"
    assert h.l1s[0].contains(np.array([0])).any()
    assert h.l1s[1].contains(np.array([0])).any()


def test_at_most_one_modified_copy():
    h = make(n_cores=3)
    for core in (0, 1, 2, 1, 0):
        access(h, core, 0, 1, write=True)
        dirty_owner(h, 0)  # raises on violation


def test_remote_dirty_merges_on_write():
    rec = Recorder()
    h = make(sink=rec)
    access(h, 0, 0, 1, write=True)
    access(h, 1, 0, 1, write=True)  # invalidates core 0's dirty copy
    # No NVM write yet: the dirtiness merged into the LLC (or moved with
    # the new owner).
    assert dirty_owner(h, 0) in ("L1.1",)
    h.writeback_all()
    assert 0 in rec.events


def test_llc_eviction_back_invalidates_all_cores():
    rec = Recorder()
    h = make(l1_sets=1, l1_ways=1, llc_sets=1, llc_ways=2, sink=rec)
    access(h, 0, 0, 1, write=True)
    access(h, 1, 1, 2, write=False)
    access(h, 0, 2, 3, write=False)  # LLC set full -> evicts block 0
    assert not h.l1s[0].contains(np.array([0])).any()
    assert 0 in rec.events  # dirty data persisted on eviction


def test_crash_loses_every_cores_dirty_lines():
    rec = Recorder()
    h = make(sink=rec)
    access(h, 0, 0, 1, write=True)
    access(h, 1, 4, 5, write=True)
    h.invalidate_all()
    assert rec.events == []
    assert h.resident_dirty_blocks().size == 0


def test_flush_collects_dirtiness_across_cores():
    rec = Recorder()
    h = make(sink=rec)
    access(h, 0, 0, 1, write=True)
    access(h, 1, 1, 2, write=True)
    issued, dirty = h.flush(0, 4)
    assert issued == 4
    assert dirty == 2
    assert sorted(rec.events) == [0, 1]


MAX_BLOCK = 64

single_core_ops = st.lists(
    st.one_of(
        st.tuples(st.just("range"), st.integers(0, MAX_BLOCK - 1), st.integers(1, 40), st.booleans()),
        st.tuples(
            st.just("scatter"),
            st.lists(st.integers(0, MAX_BLOCK - 1), min_size=1, max_size=12),
            st.booleans(),
        ),
        st.tuples(st.sampled_from(["clwb", "clflushopt"]), st.integers(0, MAX_BLOCK - 1), st.integers(1, 16)),
        st.tuples(st.just("nt"), st.lists(st.integers(0, MAX_BLOCK - 1), min_size=1, max_size=8)),
        st.tuples(st.just("drain")),
    ),
    min_size=1,
    max_size=40,
)


def random_ops(rng, n):
    """``n`` ops of every kind the runtime issues, drawn from ``rng``."""
    out = []
    for _ in range(n):
        kind = ["range", "range", "scatter", "clwb", "clflushopt", "nt", "drain"][int(rng.integers(0, 7))]
        lo = int(rng.integers(0, MAX_BLOCK))
        if kind == "range":
            out.append((kind, lo, int(rng.integers(1, 41)), bool(rng.integers(0, 2))))
        elif kind == "scatter":
            blocks = rng.integers(0, MAX_BLOCK, size=int(rng.integers(1, 13))).tolist()
            out.append((kind, blocks, bool(rng.integers(0, 2))))
        elif kind in ("clwb", "clflushopt"):
            out.append((kind, lo, int(rng.integers(1, 17))))
        elif kind == "nt":
            out.append((kind, rng.integers(0, MAX_BLOCK, size=int(rng.integers(1, 9))).tolist()))
        else:
            out.append((kind,))
    return out


def run_single_core_ops(h, op_list):
    """Apply ``op_list`` to ``h``; return its NVM write-back stream, one
    tuple of block ids per sink call."""
    events = []
    h._sink = lambda blocks: events.append(tuple(int(b) for b in blocks))
    for op in op_list:
        kind = op[0]
        if kind == "range":
            _, lo, n, write = op
            h.access(lo, lo + n, write)
        elif kind == "scatter":
            h.access_blocks(np.asarray(op[1], dtype=np.int64), op[2])
        elif kind in ("clwb", "clflushopt"):
            _, lo, n = op
            h.flush(lo, lo + n, invalidate=(kind == "clflushopt"))
            h.flush_blocks(np.arange(lo + n - 1, lo - 1, -1), invalidate=(kind == "clflushopt"))
        elif kind == "nt":
            h.store_nontemporal(np.asarray(op[1], dtype=np.int64))
        else:
            h.writeback_all()
    return events


def assert_one_core_is_two_level(op_list, l1_sets=2, l1_ways=2, llc_sets=8, llc_ways=2):
    multi = make(n_cores=1, l1_sets=l1_sets, l1_ways=l1_ways, llc_sets=llc_sets, llc_ways=llc_ways)
    single = CacheHierarchy(HierarchyConfig(tuple(lv.config for lv in multi.levels)))
    assert run_single_core_ops(multi, op_list) == run_single_core_ops(single, op_list)
    for lm, ls in zip(multi.levels, single.levels, strict=True):
        assert np.array_equal(lm.tags, ls.tags)
        assert np.array_equal(lm.dirty, ls.dirty)
        assert np.array_equal(lm.stamp, ls.stamp)
    assert np.array_equal(multi.resident_dirty_blocks(), single.resident_dirty_blocks())
    stats = multi.stats.as_dict()
    stats["L1"] = stats.pop("L1.0")
    assert stats == single.stats.as_dict()


def test_single_core_behaves_like_two_level_hierarchy():
    rng = np.random.default_rng(0)
    assert_one_core_is_two_level(random_ops(rng, 2000))
    # One-block accesses only (the original input set).
    blocks = rng.integers(0, 32, size=200)
    writes = rng.integers(0, 2, size=200)
    assert_one_core_is_two_level([("range", int(b), 1, bool(w)) for b, w in zip(blocks, writes)])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 2, 8, 2), (4, 2, 4, 4), (1, 1, 2, 2), (2, 4, 8, 2)]), single_core_ops)
def test_single_core_equals_two_level_on_any_sequence(shape, op_list):
    l1_sets, l1_ways, llc_sets, llc_ways = shape
    assert_one_core_is_two_level(op_list, l1_sets, l1_ways, llc_sets, llc_ways)


def test_shared_counter_updates_by_alternating_cores():
    # The pattern that motivates coherence: two cores ping-ponging writes
    # to one line never lose data, and NVM sees it only on flush.
    rec = Recorder()
    h = make(sink=rec)
    for i in range(10):
        access(h, i % 2, 0, 1, write=True)
    assert rec.events == []
    h.flush(0, 1)
    assert rec.events == [0]


def test_writeback_events_are_counted_like_the_single_core_hierarchy():
    # Both hierarchies count through MemoryStats.count_writeback: one event
    # per non-empty sink call, blocks split by source.
    calls = []
    h = make(sink=lambda blocks: calls.append(blocks.size))
    single = CacheHierarchy(
        HierarchyConfig((CacheLevelConfig("L1", 2 * 2 * 64, 2), CacheLevelConfig("LLC", 8 * 2 * 64, 2)))
    )
    access(h, 0, 0, 8, write=True)
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
