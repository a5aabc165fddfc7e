"""The inverse way index and the batched all-hit prefix of ``access``.

``SetAssociativeCache._where`` must name the way of every resident block
and nothing else, whatever the op sequence.  ``CacheHierarchy.access``
applies a range's leading all-hit rounds as one batched refresh; it must
leave every array, the clock and the stats exactly as the plain round
loop does, and the LRU order it leaves must pick the reference model's
victims later on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import CacheLevelConfig
from repro.memsim.hierarchy import CacheHierarchy
from repro.memsim.multicore import MulticoreHierarchy
from repro.memsim.rounds import iter_rounds_contiguous
from tests.memsim.reference_oracle import ReferenceHierarchy
from tests.memsim.test_equivalence import (
    MAX_BLOCK,
    assert_same_state,
    build,
    configs,
    ops,
    run_ops,
)


def assert_index_consistent(cache: SetAssociativeCache) -> None:
    valid = cache.tags >= 0
    sets, ways = np.nonzero(valid)
    blocks = cache.tags[sets, ways]
    assert blocks.max(initial=-1) + 1 < cache._where.size  # sentinel stays absent
    assert (cache._where[blocks] == ways).all()
    assert int((cache._where >= 0).sum()) == int(valid.sum())


class RoundLoop(CacheHierarchy):
    """A hierarchy whose ``access`` is the plain one-round-at-a-time loop."""

    def access(self, block_lo, block_hi, write):
        for rnd in iter_rounds_contiguous(block_lo, block_hi, self._round):
            self._access_round(rnd, write)


def assert_bit_identical(h, loop) -> None:
    for lv, lw in zip(h.levels, loop.levels):
        assert np.array_equal(lv.tags, lw.tags)
        assert np.array_equal(lv.dirty, lw.dirty)
        assert np.array_equal(lv.stamp, lw.stamp)
        assert lv._clock == lw._clock
        assert lv.stats == lw.stats
    assert h.stats.as_dict() == loop.stats.as_dict()


@settings(max_examples=150, deadline=None)
@given(configs(), ops)
def test_where_names_every_resident_way(levels, op_list):
    h, ref = build(levels)
    for op in op_list:
        run_ops(h, ref, [op])
        for lv in h.levels:
            assert_index_consistent(lv)
    h.invalidate_all()
    for lv in h.levels:
        assert_index_consistent(lv)


@settings(max_examples=150, deadline=None)
@given(configs(), ops)
def test_batched_prefix_matches_the_round_loop(levels, op_list):
    h, ref = build(levels)
    loop = RoundLoop(h.config)
    events = run_ops(h, ref, op_list)
    assert events == run_ops(loop, ReferenceHierarchy(h.config), op_list)
    assert_bit_identical(h, loop)


core_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["range", "scatter"]),
            st.integers(0, 2),
            st.lists(st.integers(0, MAX_BLOCK - 1), min_size=1, max_size=12),
            st.booleans(),
        ),
        st.tuples(st.sampled_from(["flush", "clflush", "nt"]), st.integers(0, MAX_BLOCK - 8)),
        st.tuples(st.sampled_from(["drain", "crash"])),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 2, 8, 2), (4, 2, 4, 4), (1, 1, 2, 2)]), core_ops)
def test_where_holds_under_coherence(shape, op_list):
    l1_sets, l1_ways, llc_sets, llc_ways = shape
    h = MulticoreHierarchy(
        3,
        CacheLevelConfig("L1", l1_sets * l1_ways * 64, l1_ways),
        CacheLevelConfig("LLC", llc_sets * llc_ways * 64, llc_ways),
    )
    for op in op_list:
        kind = op[0]
        if kind == "range":
            _, h.core, blocks, write = op
            h.access(blocks[0], blocks[0] + len(blocks), write)
        elif kind == "scatter":
            _, h.core, blocks, write = op
            h.access_blocks(np.asarray(blocks, dtype=np.int64), write)
        elif kind in ("flush", "clflush"):
            h.flush(op[1], op[1] + 8, invalidate=(kind == "clflush"))
        elif kind == "nt":
            h.store_nontemporal(np.arange(op[1], op[1] + 4))
        elif kind == "drain":
            h.writeback_all()
        else:
            h.invalidate_all()
        for cache in h.levels:
            assert_index_consistent(cache)


def test_lookup_past_the_index_is_absent():
    c = SetAssociativeCache(CacheLevelConfig("T", 4 * 2 * 64, 2))
    c.install(np.array([3]), dirty=False)
    present, way = c.lookup(np.array([3, 4, 10**9]))
    assert present.tolist() == [True, False, False]
    assert way[1:].tolist() == [-1, -1]


def test_resident_prefix_then_mid_range_miss():
    """Three all-hit rounds, then a miss inside the fourth: one batched
    refresh plus the round loop must match the reference model, and the
    LRU order it leaves must evict the reference's victims afterwards."""
    h, ref = build([(4, 4), (8, 4)])
    loop = RoundLoop(h.config)
    assert h._round == 4
    looped: list[list[int]] = []
    inner = h._access_round
    h._access_round = lambda rnd, write: (looped.append(rnd.tolist()), inner(rnd, write))
    sequence = [  # ("range", lo, length, write)
        ("range", 0, 12, False),  # cold: three rounds, now resident in L1
        ("range", 0, 14, True),  # rounds 0-2 hit (store hits), 12 and 13 miss
        ("range", 4, 8, True),  # all hit: 0-3, then 12-13, are now L1's LRU
        ("range", 16, 8, True),  # set 0 evicts 0, then 12
        ("range", 32, 4, False),  # set 0 evicts 4: batched one round before 8
        ("drain",),
    ]
    events, loop_events, by_op = [], [], []
    loop_ref = ReferenceHierarchy(h.config)
    for op in sequence:
        looped.clear()
        events += run_ops(h, ref, [op])
        loop_events += run_ops(loop, loop_ref, [op])
        by_op.append(list(looped))
    assert by_op[1] == [[12, 13]]  # the first three rounds were batched
    assert by_op[2] == []  # the whole range was batched
    l1 = set(h.levels[0].resident_blocks().tolist())
    assert {8, 16, 20, 32} <= l1 and not {0, 4, 12} & l1
    assert events == ref.nvm_writebacks and events
    assert h.stats.nvm_fills == ref.nvm_fills
    assert_same_state(h, ref)
    assert events == loop_events
    assert_bit_identical(h, loop)
    for lv in h.levels:
        assert_index_consistent(lv)
