"""Crash-model survivor-plan selection vs. the pure-Python oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UsageError
from repro.memsim.blocks import BLOCK_SIZE
from repro.memsim.crashmodel import (
    ADR_WPQ_DEPTH,
    DEFAULT_CRASH_MODEL,
    TEAR_GRANULARITY,
    Adr,
    Eadr,
    Torn,
    WholeCacheLoss,
    get_model,
    in_flight_block,
)
from repro.memsim.reference import reference_survivor_plan
from repro.util.rng import derive_rng


def _dirty_state(draw_blocks, draw_seqs):
    """Sorted unique dirty block ids with aligned store sequences."""
    blocks = sorted(set(draw_blocks))
    seqs = draw_seqs[: len(blocks)]
    return blocks, seqs


dirty_sets = st.lists(st.integers(0, 200), min_size=0, max_size=40)
seq_lists = st.lists(st.integers(0, 10_000), min_size=40, max_size=40)
model_specs = st.sampled_from(
    [
        "whole-cache-loss",
        "adr",
        "adr:wpq=1",
        "adr:wpq=4",
        "eadr",
        "eadr:granularity=16",
        "torn",
        "torn:granularity=32",
    ]
)


@settings(max_examples=150, deadline=None)
@given(model_specs, dirty_sets, seq_lists, st.integers(0, 2**31 - 1))
def test_survivor_plan_matches_reference(spec, raw_blocks, raw_seqs, seed):
    blocks, seqs = _dirty_state(raw_blocks, raw_seqs)
    model = get_model(spec)
    # Identically derived generators: the draw schedules must line up.
    rng_vec = derive_rng(seed, "crash-model", model.spec, 0)
    rng_ref = derive_rng(seed, "crash-model", model.spec, 0)
    full, partial = model.survivor_plan(
        np.asarray(blocks, dtype=np.int64),
        np.asarray(seqs, dtype=np.int64),
        rng_vec,
    )
    ref_full, ref_partial = reference_survivor_plan(
        model.name, model.params(), blocks, seqs, rng_ref
    )
    assert sorted(full.tolist()) == ref_full
    assert partial == ref_partial
    # Both sides consumed the same number of draws.
    assert rng_vec.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(model_specs, dirty_sets, seq_lists, st.integers(0, 2**31 - 1))
def test_survivor_plan_deterministic(spec, raw_blocks, raw_seqs, seed):
    blocks, seqs = _dirty_state(raw_blocks, raw_seqs)
    model = get_model(spec)
    results = []
    for _ in range(2):
        rng = derive_rng(seed, "crash-model", model.spec, 7)
        full, partial = model.survivor_plan(
            np.asarray(blocks, dtype=np.int64),
            np.asarray(seqs, dtype=np.int64),
            rng,
        )
        results.append((full.tolist(), partial))
    assert results[0] == results[1]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
    dirty_sets,
    seq_lists,
    st.integers(0, 2**31 - 1),
)
def test_torn_prefix_bounds(granularity, raw_blocks, raw_seqs, seed):
    blocks, seqs = _dirty_state(raw_blocks, raw_seqs)
    for model in (Torn(granularity), Eadr(granularity)):
        rng = derive_rng(seed, "crash-model", model.spec, 0)
        _full, partial = model.survivor_plan(
            np.asarray(blocks, dtype=np.int64),
            np.asarray(seqs, dtype=np.int64),
            rng,
        )
        if partial is not None:
            block, cut = partial
            assert block in blocks
            assert 0 <= cut <= BLOCK_SIZE
            assert cut % granularity == 0


@settings(max_examples=100, deadline=None)
@given(dirty_sets, seq_lists, st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_adr_bounded_and_subset_of_eadr(raw_blocks, raw_seqs, wpq, seed):
    """ADR keeps at most ``wpq`` lines and eADR's survivors are a superset
    (the structural monotonicity guarantee)."""
    blocks, seqs = _dirty_state(raw_blocks, raw_seqs)
    arr_b = np.asarray(blocks, dtype=np.int64)
    arr_s = np.asarray(seqs, dtype=np.int64)
    adr = Adr(wpq)
    full, partial = adr.survivor_plan(arr_b, arr_s, derive_rng(seed, "t", 0))
    assert partial is None
    assert full.size <= wpq
    assert set(full.tolist()) <= set(blocks)
    eadr_full, eadr_partial = Eadr().survivor_plan(
        arr_b, arr_s, derive_rng(seed, "t", 1)
    )
    eadr_survivors = set(eadr_full.tolist())
    if eadr_partial is not None:
        eadr_survivors.add(eadr_partial[0])
    # eADR loses at most a suffix of the in-flight line; ADR's full lines
    # never include the in-flight line, so they all persist under eADR too.
    assert set(full.tolist()) <= eadr_survivors
    assert eadr_survivors == set(blocks)


def test_in_flight_block_basics():
    empty = np.empty(0, dtype=np.int64)
    assert in_flight_block(empty, empty) == -1
    blocks = np.array([3, 7, 9], dtype=np.int64)
    assert in_flight_block(blocks, np.array([0, 0, 0], dtype=np.int64)) == -1
    assert in_flight_block(blocks, np.array([5, 9, 2], dtype=np.int64)) == 7
    # Sequence ties break toward the highest block id.
    assert in_flight_block(blocks, np.array([9, 9, 2], dtype=np.int64)) == 7


def test_adr_excludes_in_flight_line():
    blocks = np.array([1, 2, 3], dtype=np.int64)
    seqs = np.array([10, 30, 20], dtype=np.int64)
    full, partial = Adr(wpq=8).survivor_plan(blocks, seqs, derive_rng(0, "t"))
    assert partial is None
    assert full.tolist() == [1, 3]  # block 2 is in flight


def test_adr_keeps_most_recent():
    blocks = np.arange(10, dtype=np.int64)
    seqs = np.arange(1, 11, dtype=np.int64)  # block 9 is in flight
    full, _ = Adr(wpq=3).survivor_plan(blocks, seqs, derive_rng(0, "t"))
    assert full.tolist() == [6, 7, 8]


def test_whole_cache_loss_survives_nothing():
    blocks = np.arange(5, dtype=np.int64)
    seqs = np.arange(1, 6, dtype=np.int64)
    full, partial = WholeCacheLoss().survivor_plan(blocks, seqs, derive_rng(0, "t"))
    assert full.size == 0 and partial is None


# -- spec parsing --------------------------------------------------------------


def test_get_model_canonical_specs():
    assert get_model("whole-cache-loss").spec == DEFAULT_CRASH_MODEL
    assert get_model("adr").spec == f"adr:wpq={ADR_WPQ_DEPTH}"
    assert get_model("adr:wpq=64").spec == get_model("adr").spec
    assert get_model("adr:wpq=32").spec != get_model("adr").spec
    assert get_model("eadr").spec == f"eadr:granularity={TEAR_GRANULARITY}"
    assert get_model("torn:granularity=16").spec == "torn:granularity=16"


def test_get_model_passthrough_and_default_flag():
    model = Eadr()
    assert get_model(model) is model
    assert get_model("whole-cache-loss").is_default
    assert not get_model("adr").is_default


@pytest.mark.parametrize(
    "spec",
    [
        "nonsense",
        "adr:wpq",  # malformed pair
        "adr:wpq=abc",  # non-integer value
        "adr:depth=3",  # unknown parameter
        "adr:wpq=0",  # out of range
        "torn:granularity=7",  # does not divide the block size
        "eadr:granularity=0",
        "whole-cache-loss:wpq=1",  # parameters on a parameterless model
    ],
)
def test_get_model_rejects_bad_specs(spec):
    with pytest.raises(UsageError):
        get_model(spec)
