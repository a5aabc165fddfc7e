"""Property-based equivalence: vectorized hierarchy == reference model.

Random operation sequences (reads, writes, flushes, drains) on assorted
small configurations must produce identical cache state, identical NVM
write-back event streams, and identical fill counts in both models.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.memsim.hierarchy import CacheHierarchy
from tests.memsim.reference_oracle import ReferenceHierarchy

MAX_BLOCK = 64


def configs():
    return st.sampled_from(
        [
            # (sets, ways) per level, L1 -> LLC
            [(2, 1)],
            [(4, 2)],
            [(2, 2), (4, 2)],
            [(2, 1), (4, 1)],
            [(2, 2), (4, 2), (8, 2)],
            # L1 holds 4 rounds, so ranges can open with several all-hit rounds
            [(2, 4), (8, 2)],
        ]
    )


def build(levels):
    cfg = HierarchyConfig(
        tuple(
            CacheLevelConfig(f"L{i+1}", sets * ways * 64, ways)
            for i, (sets, ways) in enumerate(levels)
        )
    )
    return CacheHierarchy(cfg), ReferenceHierarchy(cfg)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("range"),
            st.integers(0, MAX_BLOCK - 1),
            st.integers(1, 40),
            st.booleans(),
        ),
        st.tuples(
            st.just("scatter"),
            st.lists(st.integers(0, MAX_BLOCK - 1), min_size=1, max_size=12),
            st.booleans(),
        ),
        st.tuples(
            st.just("flush"),
            st.integers(0, MAX_BLOCK - 1),
            st.integers(1, 16),
            st.booleans(),
        ),
        st.tuples(st.just("drain")),
    ),
    min_size=1,
    max_size=30,
)


def run_ops(h, ref, op_list):
    sink_events: list[int] = []
    h._sink = lambda blocks: sink_events.extend(int(b) for b in blocks)
    for op in op_list:
        if op[0] == "range":
            _, lo, n, write = op
            h.access(lo, lo + n, write)
            ref.access(lo, lo + n, write)
        elif op[0] == "scatter":
            _, blocks, write = op
            arr = np.asarray(blocks, dtype=np.int64)
            h.access_blocks(arr, write)
            ref.access_blocks(arr, write)
        elif op[0] == "flush":
            _, lo, n, invalidate = op
            h.flush(lo, lo + n, invalidate=invalidate)
            ref.flush(lo, lo + n, invalidate=invalidate)
        elif op[0] == "drain":
            h.writeback_all()
            ref.writeback_all()
    return sink_events


def assert_same_state(h, ref):
    for lv, rlv in zip(h.levels, ref.levels):
        assert list(lv.resident_blocks()) == rlv.resident_blocks()
        assert list(lv.resident_dirty_blocks()) == rlv.resident_dirty_blocks()


@settings(max_examples=200, deadline=None)
@given(configs(), ops)
def test_random_sequences_equivalent(levels, op_list):
    h, ref = build(levels)
    events = run_ops(h, ref, op_list)
    assert events == ref.nvm_writebacks
    assert h.stats.nvm_fills == ref.nvm_fills
    assert_same_state(h, ref)


@settings(max_examples=60, deadline=None)
@given(configs(), ops)
def test_nvm_write_count_matches_events(levels, op_list):
    h, ref = build(levels)
    events = run_ops(h, ref, op_list)
    assert h.stats.nvm_writes == len(events)
    assert (
        h.stats.nvm_writes_from_evictions
        + h.stats.nvm_writes_from_flushes
        + h.stats.nvm_writes_from_drain
        == h.stats.nvm_writes
    )


@settings(max_examples=60, deadline=None)
@given(configs(), ops)
def test_inclusivity_invariant(levels, op_list):
    h, ref = build(levels)
    run_ops(h, ref, op_list)
    for upper, lower in zip(h.levels, h.levels[1:]):
        up = set(upper.resident_blocks().tolist())
        low = set(lower.resident_blocks().tolist())
        assert up <= low


@settings(max_examples=60, deadline=None)
@given(configs(), ops)
def test_drain_leaves_nothing_dirty(levels, op_list):
    h, ref = build(levels)
    run_ops(h, ref, op_list)
    h.writeback_all()
    assert h.resident_dirty_blocks().size == 0
