"""Persistent heap: block-aligned object layout plus the NVM value image.

Each :class:`DataObject` owns two byte stores, each one zeroed buffer
padded to whole 64-byte blocks:

* ``data`` — the architectural state, i.e. what the CPU would observe
  (registers/caches/memory combined).  Applications compute directly on
  this NumPy array, a view of the first ``nbytes`` of ``data_rows``.
* ``nvm_bytes`` — the bytes actually persistent in NVM.  It is updated
  *only* when the cache simulation writes a dirty block back (eviction,
  flush, drain), so after a crash it is exactly what the paper's restart
  sees: a mixture of written-back new values and stale old values.

Nothing writes the padding past ``nbytes``, so it stays zero in both
stores and a write-back is a whole-row copy (one ``(k, 64)`` gather plus
one scatter), like the cache line it models.

The heap also implements the paper's postmortem analysis: the per-object
*data inconsistent rate*, the fraction of bytes whose cached (architectural)
value differs from the NVM image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AllocationError
from repro.memsim.blocks import BLOCK_SIZE, align_up

__all__ = ["DataObject", "PersistentHeap"]

_OBJECT_GAP_BLOCKS = 1  # guard block between objects (never shared lines)


@dataclass
class DataObject:
    """A heap- or global-scope data object registered with NVCT."""

    name: str
    base_block: int
    nbytes: int
    shape: tuple[int, ...]
    dtype: np.dtype
    candidate: bool
    readonly: bool
    role: str  # "data" | "iterator"
    data: np.ndarray = field(repr=False)
    data_bytes: np.ndarray = field(repr=False)
    data_rows: np.ndarray = field(repr=False)  # (nblocks, 64), zero padding
    nvm_bytes: np.ndarray = field(repr=False)  # nblocks * 64, zero padding

    @property
    def nvm_rows(self) -> np.ndarray:
        return self.nvm_bytes.reshape(-1, BLOCK_SIZE)

    @property
    def nblocks(self) -> int:
        return align_up(self.nbytes) // BLOCK_SIZE

    @property
    def base_byte(self) -> int:
        return self.base_block * BLOCK_SIZE

    @property
    def end_block(self) -> int:
        return self.base_block + self.nblocks

    def nvm_view(self) -> np.ndarray:
        """The NVM image reinterpreted with the object's dtype and shape."""
        return self.nvm_bytes[: self.nbytes].view(self.dtype).reshape(self.shape)

    def inconsistent_rate(self) -> float:
        """Fraction of the object's bytes differing between the
        architectural state and the NVM image."""
        if self.nbytes == 0:
            return 0.0
        diff = self.data_bytes != self.nvm_bytes[: self.nbytes]
        return float(diff.mean())

    def sync_nvm(self) -> None:
        """Force the NVM image identical to the architectural state (used
        at initialization: the paper's apps write initial data before the
        main loop, and initialization re-runs on restart anyway)."""
        self.nvm_bytes[: self.nbytes] = self.data_bytes

    def block_range_of_bytes(self, byte_lo: int, byte_hi: int) -> tuple[int, int]:
        """Absolute block range covering object-relative byte range."""
        if byte_hi <= byte_lo:
            return (self.base_block, self.base_block)
        b0 = self.base_block + byte_lo // BLOCK_SIZE
        b1 = self.base_block + (byte_hi - 1) // BLOCK_SIZE + 1
        return (b0, b1)


class PersistentHeap:
    """Address-space layout and NVM image bookkeeping for data objects."""

    def __init__(self, track_write_counts: bool = False) -> None:
        self.objects: dict[str, DataObject] = {}
        self._order: list[DataObject] = []
        self._next_block = 0
        # Parallel arrays for fast block -> object routing.
        self._bases = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        # Optional per-block NVM write counters (endurance analysis).
        self._track_writes = track_write_counts
        self._write_counts = np.zeros(0, dtype=np.int64)
        # Optional write-back observer (golden-pass delta recording).
        self._delta_sink = None

    # -- allocation ---------------------------------------------------------

    def allocate(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        *,
        candidate: bool = True,
        readonly: bool = False,
        role: str = "data",
    ) -> DataObject:
        """Allocate a block-aligned data object and its NVM image.

        ``candidate`` marks objects eligible for critical-object selection
        (paper Sec. 5.1: lifetime spans the main loop and not read-only);
        read-only objects are registered for traffic accounting but are
        restored by re-initialization, never from NVM.
        """
        if name in self.objects:
            raise AllocationError(f"object {name!r} already allocated")
        if candidate and readonly:
            raise AllocationError(f"object {name!r}: read-only objects are not candidates")
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        if nbytes <= 0:
            raise AllocationError(f"object {name!r}: empty allocation")
        rows = np.zeros((align_up(nbytes) // BLOCK_SIZE, BLOCK_SIZE), dtype=np.uint8)
        data_bytes = rows.reshape(-1)[:nbytes]
        obj = DataObject(
            name=name,
            base_block=self._next_block,
            nbytes=nbytes,
            shape=tuple(shape),
            dtype=dt,
            candidate=candidate,
            readonly=readonly,
            role=role,
            data=data_bytes.view(dt).reshape(shape),
            data_bytes=data_bytes,
            data_rows=rows,
            nvm_bytes=np.zeros(rows.size, dtype=np.uint8),
        )
        self._next_block += obj.nblocks + _OBJECT_GAP_BLOCKS
        self.objects[name] = obj
        self._order.append(obj)
        self._bases = np.append(self._bases, obj.base_block)
        self._ends = np.append(self._ends, obj.end_block)
        return obj

    # -- cache write-back sink ------------------------------------------------

    def writeback_blocks(self, blocks: np.ndarray) -> None:
        """Copy the architectural bytes of the given absolute blocks into
        the NVM image.  Installed as the cache hierarchy's write-back sink,
        so the NVM image always reflects exactly what has been persisted."""
        if blocks.size == 0:
            return
        if self._track_writes:
            # Count every NVM write, including ones beyond the data-object
            # area (e.g. a checkpoint region); grow the counters on demand.
            needed = max(self._next_block, int(blocks.max()) + 1)
            if self._write_counts.size < needed:
                grown = np.zeros(needed, dtype=np.int64)
                grown[: self._write_counts.size] = self._write_counts
                self._write_counts = grown
            np.add.at(self._write_counts, blocks, 1)
        idx = np.searchsorted(self._bases, blocks, side="right") - 1
        valid = (idx >= 0) & (blocks < self._ends[np.maximum(idx, 0)])
        sink = self._delta_sink
        blocks, idx = blocks[valid], idx[valid]
        for oi in np.unique(idx):
            obj = self._order[int(oi)]
            rel_blocks = blocks[idx == oi] - obj.base_block
            rows = obj.data_rows[rel_blocks]
            obj.nvm_rows[rel_blocks] = rows
            if sink is not None:
                sink(obj, rel_blocks, rows)

    def set_delta_sink(self, sink) -> None:
        """Install an observer called after every NVM write-back with
        ``(obj, rel_blocks, rows)`` — the object, its written block ids
        (object-relative), and the persisted ``(k, 64)`` rows.  The
        golden-pass recorder (:mod:`repro.memsim.golden`) uses this to log
        per-segment deltas instead of copying whole NVM images."""
        self._delta_sink = sink

    # -- analysis / snapshots ---------------------------------------------------

    def candidates(self) -> list[DataObject]:
        return [o for o in self._order if o.candidate and o.role == "data"]

    def iterator_object(self) -> DataObject | None:
        for o in self._order:
            if o.role == "iterator":
                return o
        return None

    def candidate_bytes(self) -> int:
        return sum(o.nbytes for o in self.candidates())

    def footprint_bytes(self) -> int:
        return sum(o.nbytes for o in self._order)

    def inconsistent_rates(self) -> dict[str, float]:
        return {o.name: o.inconsistent_rate() for o in self.candidates()}

    def snapshot_nvm(self) -> dict[str, np.ndarray]:
        """Copy the NVM image of every restart-relevant object (candidates
        plus the loop iterator)."""
        out: dict[str, np.ndarray] = {}
        for o in self._order:
            if o.candidate or o.role == "iterator":
                out[o.name] = o.nvm_bytes[: o.nbytes].copy()
        return out

    def snapshot_consistent(self) -> dict[str, np.ndarray]:
        """Copy the *architectural* bytes instead (the paper's physical-
        machine "Verified" methodology forces full consistency)."""
        out: dict[str, np.ndarray] = {}
        for o in self._order:
            if o.candidate or o.role == "iterator":
                out[o.name] = o.data_bytes.copy()
        return out

    def total_blocks(self) -> int:
        return self._next_block

    def write_counts(self) -> np.ndarray:
        """Per-block NVM write counters (requires ``track_write_counts``).

        Covers at least the data-object area; longer when writes landed
        beyond it (e.g. checkpoint copies)."""
        if not self._track_writes:
            raise RuntimeError("heap was created without track_write_counts=True")
        size = max(self._next_block, self._write_counts.size)
        out = np.zeros(size, dtype=np.int64)
        out[: self._write_counts.size] = self._write_counts
        return out
