"""Edge cases of the managed-array API."""

import numpy as np
import pytest

from repro.errors import AllocationError
from repro.nvct.managed import Workspace
from repro.nvct.runtime import CountingRuntime, Runtime


def test_element_write_records_one_block():
    rt = CountingRuntime()
    ws = Workspace(rt)
    a = ws.array("a", (64,))
    a.write(3, 7.5)
    assert a.np[3] == 7.5
    assert rt.counter == 1


def test_element_write_2d_key():
    rt = Runtime()
    ws = Workspace(rt)
    a = ws.array("a", (8, 8))
    a.write((2, 5), 1.25)
    assert a.np[2, 5] == 1.25
    a.persist()
    assert a.obj.nvm_view()[2, 5] == 1.25


def test_scalar_element_read_records():
    rt = CountingRuntime()
    ws = Workspace(rt)
    a = ws.array("a", (64,))
    a.np[10] = 4.0
    v = a.read(10)
    assert v == 4.0
    assert rt.counter == 1


def test_update_noncontiguous_is_atomic_but_correct():
    rt = Runtime(crash_points=[2])
    ws = Workspace(rt)
    a = ws.array("a", (16, 16))
    a.np[...] = 1.0
    rt.main_loop_begin()
    a.update((slice(None), slice(0, 2)), lambda v: np.multiply(v, 5.0, out=v))
    assert np.all(a.np[:, :2] == 5.0)
    assert np.all(a.np[:, 2:] == 1.0)
    assert rt.golden_store().n_images == 1  # crash fired at the op boundary


def test_empty_slice_operations():
    rt = Runtime()
    ws = Workspace(rt)
    a = ws.array("a", (16,))
    a.write(slice(4, 4), 9.0)  # empty
    a.read(slice(4, 4))
    assert np.all(a.np == 0.0)


def test_broadcast_write():
    ws = Workspace(Runtime())
    a = ws.array("a", (4, 8))
    a.write(slice(None), np.arange(8.0))  # broadcast row
    assert np.array_equal(a.np[2], np.arange(8.0))


def test_write_with_array_value_and_crash_split():
    rt = Runtime(crash_points=[1])
    ws = Workspace(rt)
    a = ws.array("a", (32,))
    rt.main_loop_begin()
    vals = np.arange(32.0)
    a.write(slice(None), vals)
    assert np.array_equal(a.np, vals)  # completes after the snapshot


def test_dtype_preserved_on_write():
    ws = Workspace(None)
    a = ws.array("a", (8,), np.int32)
    a.write(slice(None), 7)
    assert a.np.dtype == np.int32
    assert a.dtype == np.int32


def test_int_dtype_scatter():
    rt = Runtime()
    ws = Workspace(rt)
    a = ws.array("a", (256,), np.int16)
    a.write_at(np.array([0, 100, 255]), np.array([1, 2, 3], dtype=np.int16))
    assert a.np[100] == 2
    # 3 elements x 2 bytes: elements 0 and 100 may share a block boundary
    # arrangement; the counter counts blocks, not elements.
    assert 1 <= rt.counter <= 3


def test_shape_and_size_properties():
    ws = Workspace(None)
    a = ws.array("a", (3, 5))
    assert a.shape == (3, 5)
    assert a.size == 15
    assert a.name == "a"


def test_workspace_rejects_duplicate_names():
    ws = Workspace(None)
    ws.array("a", (4,))
    with pytest.raises(AllocationError):
        ws.array("a", (4,))


def test_view_is_unrecorded():
    rt = CountingRuntime()
    ws = Workspace(rt)
    a = ws.array("a", (64,))
    _ = a.np[5]
    _ = a.np.sum()  # raw, unrecorded access path
    assert rt.counter == 0
