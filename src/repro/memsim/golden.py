"""Golden-pass crash simulation: one execution, N crash images.

Copying every restart-relevant object's NVM image — plus a full-heap
architectural-vs-NVM diff — at each of the N crash points of the single
instrumented execution would cost ``O(N x heap_bytes)`` even though the
execution itself runs only once.  The *golden pass* is the engine's only
source of crash images instead:

* :class:`GoldenRecorder` rides the instrumented run.  It captures one
  base NVM image per object at the start of the crash window, then logs
  every NVM write-back as a ``(segment, block ids, rows)`` delta — whole
  64-byte rows, the granularity at which NVM changes — where a *segment*
  is the span between consecutive crash points (persist-op / access
  boundaries included).  Inconsistent rates are maintained
  incrementally: stores and write-backs mark their blocks stale, and a
  crash point only re-diffs the stale blocks — exact, because a block's
  architectural and NVM bytes can only change through those two paths.
* :class:`GoldenStore` replays the deltas after the run.  Per object the
  deltas are concatenated into a block-id array and a ``(rows, 64)``
  value array with a prefix-reduction (``searchsorted`` over segment
  ids -> cumulative row bounds), so materializing crash image *k* is
  "patch every row up to bound[k+1]" — one vectorized row scatter per
  object into a block-padded buffer, not a heap copy.  Ascending
  batches of crash points share one rolling buffer; consumers
  either *borrow* read-only views (zero-copy, valid until the next image)
  or request stable copies (consumers that retain images).  Parallel
  classification borrows too: each pool worker holds the store and
  replays its own chunk of crash-point indices.

* The verified methodology (restart from crash-time *architectural*
  copies) rides the same recorder: with ``capture_consistent`` each crash
  point also keeps one read-only copy of the architectural bytes, yielded
  as ``Snapshot.consistent_state``.

The reconstructed snapshots are bit-identical to a copy-and-diff snapshot
at every point — the same bytes land in NVM in the same event order, and
the incremental rate bookkeeping counts exactly the bytes a full diff
would.  That copy-and-diff oracle lives in the test tree
(``tests/nvct/legacy_oracle.py``); ``tests/nvct/test_golden.py`` and the
execution matrix compare every engine path against it.

* A store can be *narrowed* to a subset of its images
  (:meth:`GoldenStore.select`): a zero-copy view whose image *j* is
  bit-identical to the parent's ``images[j]``.  One recording at the
  union of several shards' crash points thus serves every shard, as
  long as no foreign point changed the recorded bytes — which the
  recorder's divergent-split count (see :class:`GoldenRecorder`) rules
  out.
* A store is *published* as one file (:meth:`GoldenStore.publish`) and
  mapped back read-only by other processes (:meth:`GoldenStore.open`):
  ``repro serve`` records the campaign once, publishes each shard's
  view, and its ``repro work`` processes classify from the mapping
  instead of re-recording.

Telemetry: ``golden.deltas_recorded`` / ``golden.delta_bytes`` /
``golden.divergent_splits`` (recording, published by the runtime),
``golden.images_materialized`` / ``golden.bytes_copied`` /
``golden.replay_ms`` (replay, published here).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn

import numpy as np

from repro.errors import SnapshotCorruptError
from repro.memsim.blocks import BLOCK_SIZE, align_up

if TYPE_CHECKING:  # imported lazily at runtime (nvct depends on memsim)
    from repro.nvct.heap import DataObject, PersistentHeap
    from repro.nvct.runtime import Snapshot

__all__ = ["GoldenRecorder", "GoldenStore", "GoldenSnapshotSource"]

#: Header ``kind`` of a published store file (:func:`repro.harness.store.seal_head`).
_STORE_KIND = "golden-store"
_ALIGN = 64  # every array of a published store starts on this boundary


def _array_label(entry: dict) -> str:
    image = "" if entry.get("image") is None else f" of image {entry['image']}"
    return f"{entry.get('kind')} array of {entry.get('obj')!r}{image}"


class _ExpiredState:
    """Stands in for a borrowed ``nvm_state`` once its iterator has moved
    on and the buffers it viewed hold a later image: any read raises."""

    def __init__(self, index: int) -> None:
        self._index = index

    def _expired(self, *args: object, **kwargs: object) -> NoReturn:
        raise RuntimeError(
            f"the nvm_state of crash image {self._index} was a borrowed view that "
            "GoldenStore.snapshots() has moved past; keep snapshots with "
            "snapshots(copy=True)"
        )

    __getitem__ = __iter__ = __len__ = __contains__ = __eq__ = _expired

    def __getattr__(self, name: str) -> NoReturn:
        self._expired()

    def __repr__(self) -> str:
        return f"<expired nvm_state of crash image {self._index}>"


@dataclass
class _ImageMeta:
    """Crash-point metadata recorded in place of a full snapshot."""

    counter: int
    iteration: int
    region: str
    rates: dict[str, float]


@dataclass
class _Tracked:
    """Per-object recording state (restart-relevant objects only)."""

    obj: "DataObject"
    base: np.ndarray  # NVM image at the start of the crash window
    seg: list[int] = field(default_factory=list)  # segment id per delta event
    idx: list[np.ndarray] = field(default_factory=list)  # block ids per event
    vals: list[np.ndarray] = field(default_factory=list)  # (k, 64) rows per event
    # Rate bookkeeping (candidates only; None for the loop iterator).
    stale: np.ndarray | None = None  # per-block "re-diff me" mask
    counts: np.ndarray | None = None  # per-block differing-byte counts
    total: int = 0  # sum(counts) maintained incrementally


class GoldenRecorder:
    """Records per-segment NVM write-back deltas during one instrumented run.

    Installed by the runtime as the heap's delta sink; ``mark_base`` is
    called at the first ``main_loop_begin`` (right after the init-phase
    ``sync_nvm``), ``take`` at every crash point, and ``build_store`` after
    the run.  Recording stops by itself once all expected images are taken.
    ``capture_consistent`` also keeps each crash point's architectural
    bytes (the verified methodology restarts from those).

    The recorder also counts *divergent splits*: while the runtime
    simulates the executed prefix of a store a crash point splits, it
    names the store's unexecuted tail in :attr:`split_tail`, and a
    write-back into that tail persists the block's pre-store bytes where
    an unsplit store would persist the new ones.  Later images then depend
    on which points split stores — what a recording shared by several
    shards must rule out.
    """

    def __init__(
        self, heap: "PersistentHeap", n_images: int, capture_consistent: bool = False
    ) -> None:
        self.heap = heap
        self.n_images = int(n_images)
        self._tracked: dict[str, _Tracked] = {}
        self._rate_order: list[_Tracked] = []
        self._metas: list[_ImageMeta] = []
        self._extras: dict[int, dict[str, tuple[np.ndarray, np.ndarray]]] | None = None
        self._consistent: list[dict[str, np.ndarray]] | None = [] if capture_consistent else None
        self._active = False
        self.deltas_recorded = 0
        self.delta_bytes = 0
        #: ``(object name, rel block lo, rel block hi)``: the unexecuted
        #: tail of a store a crash point is splitting, while its executed
        #: prefix is simulated (set by the runtime).
        self.split_tail: tuple[str, int, int] | None = None
        #: Write-backs that persisted a block of such a tail.
        self.divergent_splits = 0

    @property
    def n_taken(self) -> int:
        return len(self._metas)

    # -- recording hooks ------------------------------------------------------

    def mark_base(self) -> None:
        """Capture base NVM images at the start of the crash window.

        Objects are enumerated here (not at construction) because the heap
        is still being populated when the runtime attaches; by the first
        ``main_loop_begin`` every allocation has happened and ``sync_nvm``
        has made data == nvm, so all diff counts start at zero."""
        self._tracked.clear()
        self._rate_order = []
        for o in self.heap._order:
            if not (o.candidate or o.role == "iterator"):
                continue
            t = _Tracked(obj=o, base=o.nvm_bytes[: o.nbytes].copy())
            if o.candidate and o.role == "data":
                t.stale = np.zeros(o.nblocks, dtype=bool)
                t.counts = np.zeros(o.nblocks, dtype=np.int64)
                self._rate_order.append(t)
            self._tracked[o.name] = t
        self._metas = []
        self._extras = None
        if self._consistent is not None:
            self._consistent = []
        self._active = True

    def on_writeback(self, obj: "DataObject", rel_blocks: np.ndarray, rows: np.ndarray) -> None:
        """Heap delta sink: ``rows`` were just persisted at ``rel_blocks``."""
        if not self._active:
            return
        t = self._tracked.get(obj.name)
        if t is None:
            return
        # rel_blocks / rows are freshly materialized by the heap and never
        # mutated afterwards, so they are stored without copying.
        t.seg.append(len(self._metas))
        t.idx.append(rel_blocks)
        t.vals.append(rows)
        self.deltas_recorded += 1
        self.delta_bytes += int(rows.nbytes)
        if t.stale is not None:
            t.stale[rel_blocks] = True
        if (tail := self.split_tail) is not None and tail[0] == obj.name:
            # The tail still holds its pre-store bytes: had no crash point
            # split the store, this write-back would persist the new ones.
            if np.any((rel_blocks >= tail[1]) & (rel_blocks < tail[2])):
                self.divergent_splits += 1

    def on_store(self, obj: "DataObject", byte_lo: int, byte_hi: int) -> None:
        """Architectural store over an object-relative byte range."""
        if not self._active:
            return
        t = self._tracked.get(obj.name)
        if t is None or t.stale is None:
            return
        t.stale[byte_lo // BLOCK_SIZE : (byte_hi - 1) // BLOCK_SIZE + 1] = True

    def on_store_blocks(self, obj: "DataObject", blocks: np.ndarray) -> None:
        """Architectural scatter store over absolute block ids."""
        if not self._active:
            return
        t = self._tracked.get(obj.name)
        if t is None or t.stale is None:
            return
        t.stale[blocks - obj.base_block] = True

    def take(
        self,
        counter: int,
        iteration: int,
        region: str,
        extras: dict[str, tuple[np.ndarray, np.ndarray, int]] | None = None,
    ) -> None:
        """Record one crash point: metadata plus exact inconsistent rates.

        Only blocks touched since the previous crash point are re-diffed;
        untouched blocks keep their cached counts, so the rates equal a
        full architectural-vs-NVM diff bit for bit at a fraction of the
        cost.

        ``extras`` carries a crash model's survivor overlay for this image
        (``{name: (byte_idx, values, fixed)}``): the overlay bytes are
        stored for replay and ``fixed`` — the count of overlay bytes that
        differed from the NVM image — is subtracted from the raw diff,
        which equals a post-overlay full diff exactly (overlay bytes are
        architectural, so they can only turn differing bytes equal)."""
        rates: dict[str, float] = {}
        for t in self._rate_order:
            o = t.obj
            assert t.stale is not None and t.counts is not None
            sb = np.nonzero(t.stale)[0]
            if sb.size:
                old = int(t.counts[sb].sum())
                self._recount(t, sb)
                t.total += int(t.counts[sb].sum()) - old
                t.stale[sb] = False
            total = t.total
            if extras is not None and o.name in extras:
                total -= extras[o.name][2]
            rates[o.name] = total / o.nbytes if o.nbytes else 0.0
        if extras is not None:
            if self._extras is None:
                self._extras = {}
            self._extras[len(self._metas)] = {
                name: (idx, vals) for name, (idx, vals, _fixed) in extras.items()
                if name in self._tracked
            }
        if self._consistent is not None:
            state = self.heap.snapshot_consistent()
            for a in state.values():
                a.flags.writeable = False
            self._consistent.append(state)
        self._metas.append(_ImageMeta(counter, iteration, region, rates))
        if len(self._metas) >= self.n_images:
            self._active = False  # past the last crash point: stop recording

    @staticmethod
    def _recount(t: _Tracked, sb: np.ndarray) -> None:
        # Padding is zero on both sides, so whole rows count exactly.
        assert t.counts is not None
        t.counts[sb] = (t.obj.data_rows[sb] != t.obj.nvm_rows[sb]).sum(axis=1)

    # -- store construction ---------------------------------------------------

    def build_store(self) -> "GoldenStore":
        """Freeze the log into a replayable :class:`GoldenStore`.

        Per object, event deltas are concatenated into a block-id array
        and a ``(rows, 64)`` value array, and the per-image row bounds are
        derived by a single ``searchsorted`` over the (non-decreasing)
        segment ids — the prefix-reduction that lets replay jump between
        crash points."""
        if self.n_images and not self._tracked:
            raise RuntimeError("golden recorder never saw main_loop_begin")
        n = len(self._metas)
        base: dict[str, np.ndarray] = {}
        idx: dict[str, np.ndarray] = {}
        vals: dict[str, np.ndarray] = {}
        bounds: dict[str, np.ndarray] = {}
        for name, t in self._tracked.items():
            base[name] = t.base
            if t.seg:
                sizes = np.fromiter((a.size for a in t.idx), dtype=np.int64, count=len(t.idx))
                offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])
                ev_seg = np.asarray(t.seg, dtype=np.int64)
                # bounds[j] = rows persisted before image j fired.
                ev_bound = np.searchsorted(ev_seg, np.arange(n + 1, dtype=np.int64), side="left")
                idx[name] = np.concatenate(t.idx)
                vals[name] = np.concatenate(t.vals)
                bounds[name] = offsets[ev_bound]
            else:
                idx[name] = np.empty(0, dtype=np.int64)
                vals[name] = np.empty((0, BLOCK_SIZE), dtype=np.uint8)
                bounds[name] = np.zeros(n + 1, dtype=np.int64)
        return GoldenStore(
            metas=list(self._metas), base=base, idx=idx, vals=vals, bounds=bounds,
            extras=self._extras, consistent=self._consistent,
        )


class GoldenStore:
    """Replayable delta store: reconstructs crash-time NVM images on demand."""

    def __init__(
        self,
        metas: list[_ImageMeta],
        base: dict[str, np.ndarray],
        idx: dict[str, np.ndarray],
        vals: dict[str, np.ndarray],
        bounds: dict[str, np.ndarray],
        extras: dict[int, dict[str, tuple[np.ndarray, np.ndarray]]] | None = None,
        consistent: list[dict[str, np.ndarray]] | None = None,
    ) -> None:
        self._metas = metas
        self._base = base
        self._idx = idx
        self._vals = vals
        self._bounds = bounds
        # Per-image crash-model survivor overlays (None for the default
        # whole-cache-loss model): applied on top of the delta prefix when
        # an image is materialized, undone before advancing to the next.
        self._extras = extras
        # Per-image read-only architectural copies (verified mode only).
        self._consistent = consistent
        self._names = list(base)
        self.images_materialized = 0
        self.bytes_copied = 0
        self.replay_ms = 0.0

    @property
    def n_images(self) -> int:
        return len(self._metas)

    def counters(self) -> list[int]:
        """Access-counter value of every recorded crash point (in order)."""
        return [m.counter for m in self._metas]

    def image_signatures(self, indices: Iterable[int] | None = None) -> list[tuple[int, ...]]:
        """Dirty-block signature of the crash images ``indices`` (default:
        all), in the order given.

        The signature of image *k* is the per-object row bound vector
        ``(bounds[name][k+1] for name in sorted objects)``: two crash
        points with equal signatures received exactly the same
        write-back prefix on every restart-relevant object, so their
        reconstructed NVM images — and therefore the deterministic
        restart outcome — are bit-identical.  This is what the analyzer's
        equivalence pass partitions the crash-point space by, and what
        the trial loop reuses an outcome by.  Bounds are monotone per
        object, so equal bounds only occur on consecutive crash points.

        When the store carries crash-model survivor overlays, each
        signature gains one trailing element: a digest of the image's
        overlay bytes, so two points are only merged when both the
        persisted prefix *and* the surviving cache bytes agree.  Default
        (whole-cache-loss) signatures are unchanged.  An overlay digest
        can repeat at non-adjacent points (under ``torn``, within one
        run of equal bounds), so equal signatures are then not always
        consecutive.

        The cost is one fancy-index per object plus, under a crash model,
        one overlay digest per requested image — ``O(len(indices))``, not
        ``O(n_images)``.
        """
        ks = np.arange(self.n_images) if indices is None else np.asarray(indices, dtype=np.int64)
        cols = [self._bounds[name][ks + 1].tolist() for name in sorted(self._names)]
        sigs = list(zip(*cols)) if cols else [()] * ks.size
        if self._extras is not None:
            sigs = [
                sig + (self._extras_digest(self._extras.get(k, {})),)
                for sig, k in zip(sigs, ks.tolist())
            ]
        return sigs

    @staticmethod
    def _extras_digest(overlay: dict[str, tuple[np.ndarray, np.ndarray]]) -> int:
        h = hashlib.blake2b(digest_size=8)
        for name in sorted(overlay):
            idx, vals = overlay[name]
            h.update(name.encode())
            h.update(idx.tobytes())
            h.update(vals.tobytes())
        return int.from_bytes(h.digest(), "little")

    def select(self, images: np.ndarray) -> "GoldenStore":
        """A store of just the strictly-ascending crash ``images``, in order.

        Zero-copy where it can be: ``base`` is shared, ``idx``/``vals`` are
        prefix views ending at the last selected image's row bound, and only
        the small per-image arrays (bounds, metadata, overlay and
        consistent-copy references) are re-indexed.  Image *j* of the view
        is image ``images[j]`` of this store, bit for bit — which is how
        one recording at the union of several shards' crash points serves
        each shard.
        """
        images = np.asarray(images, dtype=np.int64)
        cut = np.concatenate([np.zeros(1, dtype=np.int64), images + 1])
        bounds = {name: b[cut] for name, b in self._bounds.items()}
        return GoldenStore(
            metas=[self._metas[k] for k in images],
            base=self._base,
            idx={name: a[: bounds[name][-1]] for name, a in self._idx.items()},
            vals={name: a[: bounds[name][-1]] for name, a in self._vals.items()},
            bounds=bounds,
            extras=None if self._extras is None else {
                j: self._extras[k] for j, k in enumerate(images.tolist()) if k in self._extras
            },
            consistent=None if self._consistent is None else [self._consistent[k] for k in images],
        )

    def snapshots(
        self, indices: Iterable[int] | None = None, copy: bool = False
    ) -> Iterator["Snapshot"]:
        """Yield :class:`~repro.nvct.runtime.Snapshot` objects for the given
        strictly-ascending crash-point ``indices`` (default: all).

        One block-padded rolling buffer per object is patched forward row
        by row through the delta arrays; skipped crash points cost only
        their deltas.  With ``copy=False`` the yielded ``nvm_state`` arrays are read-only
        *borrowed views* that are invalidated by the next iteration — the
        zero-copy contract for in-process, one-at-a-time consumption.  A
        snapshot kept past that point has its ``nvm_state`` replaced by a
        stand-in whose every read raises ``RuntimeError``.
        ``copy=True`` yields stable read-only copies (counted in
        ``golden.bytes_copied``) for consumers that retain or ship them.
        A recorded ``consistent_state`` is stable and read-only either way.
        """
        from repro.nvct.runtime import Snapshot

        idx_list = list(range(self.n_images)) if indices is None else [int(i) for i in indices]
        yielded = 0
        copied = 0
        spent = 0.0
        cur: dict[str, np.ndarray] = {}
        views: dict[str, np.ndarray] = {}
        pos = dict.fromkeys(self._names, 0)
        try:
            t0 = time.perf_counter()
            for name in self._names:
                base = self._base[name]
                cur[name] = np.zeros(align_up(base.size), dtype=np.uint8)
                v = cur[name][: base.size]
                v[:] = base
                v.flags.writeable = False
                views[name] = v
            spent += time.perf_counter() - t0
            prev = -1
            lent: Snapshot | None = None
            undo: list[tuple[str, np.ndarray, np.ndarray]] = []
            for k in idx_list:
                if not prev < k < self.n_images:
                    raise IndexError(
                        f"snapshot indices must be strictly ascending and < {self.n_images}"
                    )
                if lent is not None:
                    # Its views are about to show image k: make a kept
                    # snapshot fail loudly instead.
                    lent.nvm_state = _ExpiredState(lent.index)  # type: ignore[assignment]
                t0 = time.perf_counter()
                # Undo the previous image's survivor overlay before rolling
                # forward: the delta prefix must patch pristine NVM bytes.
                for name, uidx, saved in undo:
                    cur[name][uidx] = saved
                undo = []
                for name in self._names:
                    hi = int(self._bounds[name][k + 1])
                    lo = pos[name]
                    if hi > lo:
                        # Duplicate block ids resolve last-write-wins
                        # under NumPy fancy assignment — event order.
                        rows = cur[name].reshape(-1, BLOCK_SIZE)
                        rows[self._idx[name][lo:hi]] = self._vals[name][lo:hi]
                        pos[name] = hi
                if self._extras is not None:
                    for name, (eidx, evals) in self._extras.get(k, {}).items():
                        buf = cur.get(name)
                        if buf is None:
                            continue
                        undo.append((name, eidx, buf[eidx].copy()))
                        buf[eidx] = evals
                m = self._metas[k]
                if copy:
                    state = {}
                    for name in self._names:
                        c = views[name].copy()
                        c.flags.writeable = False
                        state[name] = c
                        copied += c.nbytes
                else:
                    state = dict(views)
                snap = Snapshot(
                    index=k,
                    counter=m.counter,
                    iteration=m.iteration,
                    region=m.region,
                    nvm_state=state,
                    rates=dict(m.rates),
                    consistent_state=(
                        None if self._consistent is None else dict(self._consistent[k])
                    ),
                )
                if not copy:
                    lent = snap
                spent += time.perf_counter() - t0
                # Count before yielding: the image exists by now, and a
                # consumer that stops pulling at the last item (zip) never
                # resumes the generator past this yield.
                yielded += 1
                prev = k
                yield snap
        finally:
            self.images_materialized += yielded
            self.bytes_copied += copied
            self.replay_ms += spent * 1000.0
            from repro.obs import registry

            if (reg := registry()) is not None:
                reg.counter("golden.images_materialized", unit="images").inc(yielded)
                if copied:
                    reg.counter("golden.bytes_copied", unit="bytes").inc(copied)
                reg.counter("golden.replay_ms", unit="ms").inc(spent * 1000.0)

    # -- the published file ----------------------------------------------------

    def _arrays(self) -> Iterator[tuple[str, str, int | None, np.ndarray]]:
        """Every array the store holds, as ``(kind, object, image, array)``."""
        for name in self._names:
            yield "base", name, None, self._base[name]
            yield "idx", name, None, self._idx[name]
            yield "vals", name, None, self._vals[name]
            yield "bounds", name, None, self._bounds[name]
        for k, overlay in sorted((self._extras or {}).items()):
            for name, (eidx, evals) in overlay.items():
                yield "overlay_idx", name, k, eidx
                yield "overlay_vals", name, k, evals
        for k, state in enumerate(self._consistent or ()):
            for name, a in state.items():
                yield "consistent", name, k, a

    def publish(self, path: str | Path, *, key: str, node: int) -> Path:
        """Write the store to ``path`` as one file other processes can map.

        Layout: a :func:`repro.harness.store.seal_head` head of kind
        ``golden-store`` whose header holds the campaign ``key``, the
        shard ``node``, every image's metadata, whether the store carries
        crash-model overlays and consistent copies, and the array table
        (kind, object, image, dtype, shape, offset, length and crc32 per
        array); zero padding to a 64-byte boundary; then each array's raw
        bytes at a 64-byte aligned offset from there.  An object's
        ``nbytes`` is its ``base`` array's length; its ``vals`` array holds
        whole ``(rows, 64)`` rows, padding included.  The arrays stream
        from their own buffers through the atomic write funnel — no joined
        copy, no pickle.
        """
        from repro.harness.store import atomic_write_bytes, crc32, seal_head

        table: list[dict] = []
        chunks: list[bytes | memoryview] = []
        offset = 0
        for kind, name, image, a in self._arrays():
            buf = memoryview(np.ascontiguousarray(a).reshape(-1).view(np.uint8))
            if pad := -offset % _ALIGN:
                chunks.append(bytes(pad))
                offset += pad
            table.append({
                "kind": kind, "obj": name, "image": image,
                "dtype": a.dtype.str, "shape": list(a.shape),
                "offset": offset, "length": buf.nbytes, "crc32": crc32(buf),
            })
            chunks.append(buf)
            offset += buf.nbytes
        head = seal_head(
            _STORE_KIND,
            key=key,
            node=int(node),
            metas=[
                [int(m.counter), int(m.iteration), str(m.region),
                 [[n, float(r)] for n, r in m.rates.items()]]
                for m in self._metas
            ],
            extras=self._extras is not None,
            consistent=self._consistent is not None,
            arrays=table,
        )
        return atomic_write_bytes(path, [head + bytes(-len(head) % _ALIGN), *chunks])

    @classmethod
    def open(cls, path: str | Path, *, key: str, node: int) -> "GoldenStore":
        """Map a :meth:`publish`\\ ed file read-only and verify all of it.

        Checks the head (:func:`repro.harness.store.open_head`: magic,
        header CRC, schema version, kind), that the file was published for
        campaign ``key`` and shard ``node``, and every array's bounds and
        crc32.  Each array becomes a read-only ``np.frombuffer`` view over
        the mapping: zero-copy, and still valid after the file is replaced
        or unlinked.  Any failure — a missing or unreadable file included —
        raises :class:`~repro.errors.SnapshotCorruptError` naming what
        failed.
        """
        import mmap

        from repro.harness.store import crc32, open_head
        from repro.obs.metrics import bump

        try:
            with open(path, "rb") as fh:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # an empty file cannot be mapped
            raise SnapshotCorruptError(f"{path}: empty golden store file") from exc
        except OSError as exc:
            raise SnapshotCorruptError(
                f"{path}: cannot map the golden store ({exc.strerror or exc}) — "
                "workers must share the scheduler's filesystem"
            ) from exc
        try:
            header, offset = open_head(mm, _STORE_KIND)
        except SnapshotCorruptError as exc:
            raise SnapshotCorruptError(f"{path}: golden store header failed its check ({exc})") from exc
        if header.get("key") != key or header.get("node") != node:
            raise SnapshotCorruptError(
                f"{path}: golden store was published for another campaign "
                f"(key {str(header.get('key'))[:12]}…, node {header.get('node')}; "
                f"expected key {key[:12]}…, node {node})"
            )
        data = -(-offset // _ALIGN) * _ALIGN
        view = memoryview(mm)
        try:
            metas = [
                _ImageMeta(int(c), int(i), str(r), {n: float(v) for n, v in rates})
                for c, i, r, rates in header["metas"]
            ]
            arrays: dict[str, dict[str, np.ndarray]] = {"base": {}, "idx": {}, "vals": {}, "bounds": {}}
            overlays: dict[tuple[int, str], dict[str, np.ndarray]] = {}
            consistent: list[dict[str, np.ndarray]] | None = (
                [{} for _ in metas] if header["consistent"] else None
            )
            for entry in header["arrays"]:
                lo = data + int(entry["offset"])
                hi = lo + int(entry["length"])
                if hi > len(mm):
                    raise SnapshotCorruptError(
                        f"{path}: truncated: the {_array_label(entry)} ends past the end of the file"
                    )
                if crc32(view[lo:hi]) != entry["crc32"]:
                    bump("store.crc_failures", unit="records")
                    raise SnapshotCorruptError(f"{path}: the {_array_label(entry)} failed its checksum")
                dtype = np.dtype(entry["dtype"])
                a = np.frombuffer(
                    mm, dtype=dtype, count=(hi - lo) // dtype.itemsize, offset=lo
                ).reshape(entry["shape"])
                kind, name, image = entry["kind"], entry["obj"], entry["image"]
                if kind in arrays:
                    arrays[kind][name] = a
                elif kind == "consistent":
                    consistent[image][name] = a  # type: ignore[index]
                else:
                    overlays.setdefault((image, name), {})[kind] = a
            extras: dict[int, dict[str, tuple[np.ndarray, np.ndarray]]] | None = None
            if header["extras"]:
                extras = {}
                for (k, name), pair in overlays.items():
                    extras.setdefault(k, {})[name] = (pair["overlay_idx"], pair["overlay_vals"])
        except SnapshotCorruptError:
            raise
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise SnapshotCorruptError(f"{path}: malformed golden store array table ({exc!r})") from exc
        return cls(
            metas=metas, base=arrays["base"], idx=arrays["idx"], vals=arrays["vals"],
            bounds=arrays["bounds"], extras=extras, consistent=consistent,
        )


class GoldenSnapshotSource:
    """The parallel engine's work list: a :class:`GoldenStore` plus the
    strictly-ascending crash-image ``indices`` to classify from it.

    :func:`repro.nvct.parallel.classify_snapshots` hands the store to each
    pool worker once and ships chunks of ``indices``; every process then
    replays its own images through :meth:`GoldenStore.snapshots`."""

    def __init__(self, store: GoldenStore, indices: Iterable[int]) -> None:
        self.store = store
        self.indices = [int(i) for i in indices]
