"""The golden pass logs NVM write-backs as whole 64-byte rows.

Every data object lives in a zeroed buffer padded to whole blocks, so a
write-back copies rows and the recorder logs ``(block ids, rows)``.
These tests hold that log to the copy-and-diff oracle on objects whose
sizes are not multiples of a block, check that the padding never becomes
visible or non-zero, that a published store with an empty row log maps
back, and that the log costs at most one int64 block id per 64-byte row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import get_factory
from repro.memsim.blocks import BLOCK_SIZE
from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.memsim.golden import GoldenStore
from repro.nvct.campaign import CampaignConfig, _instrumented_run, plan_shards
from repro.nvct.managed import Workspace
from repro.nvct.runtime import Runtime
from tests.nvct.legacy_oracle import LegacyRuntime

MODELS = ["whole-cache-loss", "adr", "eadr", "torn"]


def tiny_hier() -> HierarchyConfig:
    return HierarchyConfig((CacheLevelConfig("LLC", 4 * 2 * BLOCK_SIZE, 2),))


@st.composite
def programs(draw):
    sizes = draw(st.lists(st.integers(1, 300).filter(lambda n: n % BLOCK_SIZE), min_size=1, max_size=3))
    obj = st.integers(0, len(sizes) - 1)
    op = st.one_of(
        st.tuples(st.just("write"), obj, st.integers(0, 299), st.integers(1, 300), st.integers(0, 255)),
        st.tuples(st.just("scatter"), obj, st.lists(st.integers(0, 299), min_size=1, max_size=8),
                  st.integers(0, 255)),
        st.tuples(st.just("read"), obj, st.integers(0, 299), st.integers(1, 300)),
        st.tuples(st.just("persist"), obj),
    )
    ops = draw(st.lists(op, min_size=1, max_size=30))
    points = sorted(draw(st.lists(st.integers(1, 80), min_size=1, max_size=8, unique=True)))
    return sizes, ops, points


def run_program(rt, sizes, ops):
    ws = Workspace(rt)
    arrays = [ws.array(f"o{i}", (n,), np.uint8) for i, n in enumerate(sizes)]
    for i, a in enumerate(arrays):
        a.np[...] = (np.arange(a.np.size) * 7 + i) % 251 + 1  # non-zero init image
    ws.main_loop_begin()
    for op in ops:
        a = arrays[op[1]]
        n = a.np.size
        if op[0] == "write":
            _, _, lo, k, v = op
            a.write(slice(lo % n, min(n, lo % n + k)), v)
        elif op[0] == "scatter":
            _, _, idx, v = op
            at = np.unique(np.array(idx) % n)
            a.write_at(at, np.full(at.size, v, dtype=np.uint8))
        elif op[0] == "read":
            _, _, lo, k = op
            a.read(slice(lo % n, min(n, lo % n + k)))
        else:
            a.persist()
    rt.finalize()
    return ws.heap


@settings(max_examples=80, deadline=None)
@given(programs(), st.sampled_from(MODELS))
def test_row_log_matches_the_copy_and_diff_oracle(program, model):
    sizes, ops, points = program
    kw = dict(hierarchy=tiny_hier(), crash_points=points, crash_model=model, crash_seed=3)
    rt, oracle = Runtime(**kw), LegacyRuntime(**kw)
    heaps = [run_program(rt, sizes, ops), run_program(oracle, sizes, ops)]
    for heap in heaps:
        for o in heap.objects.values():
            # Nothing ever writes the padding past nbytes, on either side.
            assert not o.nvm_bytes[o.nbytes:].any()
            assert not o.data_rows.reshape(-1)[o.nbytes:].any()
    store = rt.golden_store()
    assert store.n_images == len(oracle.snapshots) == len(points)
    for got, want in zip(store.snapshots(), oracle.snapshots, strict=True):
        assert (got.counter, got.iteration, got.region) == (want.counter, want.iteration, want.region)
        assert got.rates == want.rates
        assert got.nvm_state.keys() == want.nvm_state.keys()
        for name, arr in want.nvm_state.items():
            assert got.nvm_state[name].tobytes() == arr.tobytes()


def test_store_with_an_untouched_object_publishes_and_opens(tmp_path):
    rt = Runtime(crash_points=[40, 80])
    ws = Workspace(rt)
    a = ws.array("a", (100,), np.uint8)
    ws.array("never", (70,), np.uint8)  # tracked, never written back
    ws.main_loop_begin()
    for v in range(1, 9):
        a.write(slice(None), v)
        a.persist()
    rt.finalize()
    store = rt.golden_store()
    assert store._idx["a"].size > 0
    assert store._vals["never"].shape == (0, BLOCK_SIZE)
    opened = GoldenStore.open(store.publish(tmp_path / "s.store", key="k", node=0), key="k", node=0)
    assert opened._vals["never"].shape == (0, BLOCK_SIZE)
    assert opened.image_signatures() == store.image_signatures()
    for mine, theirs in zip(store.snapshots(copy=True), opened.snapshots(), strict=True):
        assert mine.rates == theirs.rates
        assert {n: v.tobytes() for n, v in mine.nvm_state.items()} == {
            n: v.tobytes() for n, v in theirs.nvm_state.items()
        }


def test_row_log_costs_one_block_id_per_row():
    factory = get_factory("FT")
    cfg = CampaignConfig(n_tests=20, seed=0)
    (plan,), _ = plan_shards(factory, cfg)
    rt, _ = _instrumented_run(factory, cfg, plan.points)
    persisted = rt._golden_recorder.delta_bytes  # whole rows, in bytes
    store = rt.golden_store()
    rows = sum(v.nbytes for v in store._vals.values())
    logged = rows + sum(i.nbytes for i in store._idx.values())
    assert persisted > 0
    assert rows == persisted
    assert logged <= 1.125 * persisted
