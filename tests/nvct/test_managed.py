"""Managed arrays: recording, crash-exact store splitting, scatter ops."""

import numpy as np
import pytest

from repro.memsim.blocks import BLOCK_SIZE
from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.nvct.managed import Workspace
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import CountingRuntime, Runtime


def tiny_runtime(crash_points=None, sets=8, ways=2):
    cfg = HierarchyConfig((CacheLevelConfig("LLC", sets * ways * 64, ways),))
    return Runtime(hierarchy=cfg, crash_points=crash_points)


def crash_images(rt):
    return list(rt.golden_store().snapshots(copy=True))


def test_plain_mode_passthrough():
    ws = Workspace(None)
    a = ws.array("a", (16,))
    a.write(slice(0, 8), 3.0)
    assert np.all(a.np[:8] == 3.0)
    assert np.array_equal(a.read(slice(4, 8)), np.full(4, 3.0))


def test_counting_runtime_counts_blocks():
    rt = CountingRuntime()
    ws = Workspace(rt)
    a = ws.array("a", (32,))  # 4 blocks
    a.write(slice(None), 1.0)
    assert rt.counter == 4
    a.read(slice(0, 8))  # 1 block
    assert rt.counter == 5


def test_store_makes_cache_dirty_not_nvm():
    rt = tiny_runtime()
    ws = Workspace(rt)
    a = ws.array("a", (8,))
    a.write(slice(None), 5.0)
    assert np.all(a.obj.nvm_view() == 0.0)
    a.persist()
    assert np.all(a.obj.nvm_view() == 5.0)


def test_eviction_persists_values():
    rt = tiny_runtime(sets=1, ways=1)  # 1-block cache
    ws = Workspace(rt)
    a = ws.array("a", (16,))  # 2 blocks
    a.write(slice(None), 9.0)  # second block evicts the first
    assert np.all(a.obj.nvm_view()[:8] == 9.0)
    assert np.all(a.obj.nvm_view()[8:] == 0.0)


def test_crash_split_store_is_prefix_exact():
    # Crash after the first block of a 4-block store: NVM sees nothing
    # (still cached), architectural state holds only the prefix.
    rt = tiny_runtime(crash_points=[1], sets=8, ways=2)
    ws = Workspace(rt)
    a = ws.array("a", (32,))
    rt.main_loop_begin()
    a.write(slice(None), 7.0)
    (snap,) = crash_images(rt)
    # At the snapshot the store's tail had NOT executed architecturally.
    arch = snap.consistent_state  # not captured by default
    # The architectural array now (after the op) is fully 7.0 ...
    assert np.all(a.np == 7.0)
    # ... but the snapshot NVM image shows the pre-store values (zeros,
    # synced at main_loop_begin), because nothing was written back.
    assert np.all(snap.nvm_state["a"].view(np.float64) == 0.0)


def test_crash_split_with_eviction_sees_only_prefix_values():
    # 1-block cache: each store block evicts the previous one, so the NVM
    # image at a crash point k contains exactly the first k-1 blocks.
    rt = tiny_runtime(crash_points=[2], sets=1, ways=1)
    ws = Workspace(rt)
    a = ws.array("a", (32,))  # 4 blocks
    rt.main_loop_begin()
    a.write(slice(None), 7.0)
    snap = crash_images(rt)[0].nvm_state["a"].view(np.float64)
    assert np.all(snap[:8] == 7.0)  # block 0 evicted by block 1
    assert np.all(snap[8:] == 0.0)  # blocks 1-3: cached or not yet stored


def test_update_crash_split_uses_old_values_for_tail():
    rt = tiny_runtime(crash_points=[1], sets=1, ways=1)
    ws = Workspace(rt)
    a = ws.array("a", (16,))  # 2 blocks
    a.np[...] = 1.0
    rt.main_loop_begin()
    a.obj.sync_nvm()
    a.update(slice(None), lambda v: np.multiply(v, 3.0, out=v))
    snap = crash_images(rt)[0].nvm_state["a"].view(np.float64)
    # Crash after block 0's store: block 0 still cached (1-block cache
    # holds it; nothing evicted it yet) -> NVM shows old values.
    assert np.all(snap == 1.0)
    assert np.all(a.np == 3.0)  # architectural state completed after split


def test_scatter_write_at():
    rt = tiny_runtime()
    ws = Workspace(rt)
    a = ws.array("a", (64,))
    idx = np.array([0, 17, 33])
    a.write_at(idx, np.array([1.0, 2.0, 3.0]))
    assert a.np[17] == 2.0
    assert rt.counter == 3


def test_read_at_gathers():
    ws = Workspace(None)
    a = ws.array("a", (16,))
    a.np[...] = np.arange(16.0)
    assert np.array_equal(a.read_at(np.array([3, 5])), [3.0, 5.0])


def test_scalar_roundtrip_and_persist():
    rt = tiny_runtime()
    ws = Workspace(rt)
    s = ws.scalar("s", 4, np.int64)
    assert s.peek() == 4
    s.set(9)
    assert s.get() == 9
    s.persist()
    assert s.arr.obj.nvm_view()[0] == 9


def test_iterator_role():
    ws = Workspace(None)
    it = ws.iterator()
    assert ws.heap.iterator_object() is it.arr.obj
    assert not it.arr.obj.candidate


def test_noncontiguous_write_records_span():
    rt = CountingRuntime()
    ws = Workspace(rt)
    a = ws.array("a", (16, 16))  # 2048 bytes = 32 blocks
    a.write((slice(None), slice(0, 4)), 1.0)  # strided column band
    assert np.all(a.np[:, :4] == 1.0)
    assert np.all(a.np[:, 4:] == 0.0)
    assert rt.counter == 31  # bounding span of the strided view (ends at the last touched byte)


def test_region_attribution():
    rt = CountingRuntime()
    ws = Workspace(rt)
    a = ws.array("a", (8,))
    rt.main_loop_begin()
    with ws.region("R1"):
        a.write(slice(None), 1.0)
    assert rt.region_profile["R1"].accesses == 1
    assert rt.region_profile["R1"].executions == 1


def test_plan_flush_at_region_frequency():
    cfg = HierarchyConfig((CacheLevelConfig("LLC", 64 * 64, 8),))
    plan = PersistencePlan.per_region(["a"], {"R1": 2})
    rt = Runtime(hierarchy=cfg, plan=plan)
    ws = Workspace(rt)
    a = ws.array("a", (8,))
    rt.main_loop_begin()
    for i in range(4):
        with ws.region("R1"):
            a.write(slice(None), float(i))
    # Flushed after executions 2 and 4.
    assert len(rt.persist_events) == 2
    assert np.all(a.obj.nvm_view() == 3.0)


def test_plan_flush_at_iteration_end_and_iterator():
    plan = PersistencePlan.at_loop_end(["a"])
    rt = Runtime(plan=plan)
    ws = Workspace(rt)
    a = ws.array("a", (8,))
    it = ws.iterator()
    rt.main_loop_begin()
    ws.begin_iteration(0)
    a.write(slice(None), 2.5)
    it.set(0)
    ws.end_iteration()
    assert np.all(a.obj.nvm_view() == 2.5)
    assert it.arr.obj.nvm_view()[0] == 0
