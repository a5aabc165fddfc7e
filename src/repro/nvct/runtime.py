"""Instrumented runtime: access counting, crash snapshots, plan execution.

The runtime is the glue between applications (issuing loads/stores via
managed arrays), the cache hierarchy, and the crash-test campaign:

* every load/store advances a global *access counter* (one tick per cache
  block touched), which is the axis along which crash points are drawn —
  the paper's "stop after a randomly selected instruction" with a uniform
  distribution;
* when the counter crosses a scheduled crash point *inside* a bulk store,
  the store is split at the exact block boundary: only the prefix is
  applied to architectural state and simulated, then the crash image is
  recorded, then the remainder proceeds — so a crash image is exactly the
  machine state after a prefix of the access stream;
* persistence plans are executed at region/iteration boundaries by
  flushing the critical objects' cache blocks (CLWB/CLFLUSHOPT semantics).

Crash images are recorded by the golden pass
(:class:`~repro.memsim.golden.GoldenRecorder`): write-back deltas plus
per-point metadata, never a full copy per point.  After the run,
:meth:`Runtime.golden_store` replays them into every image.  A single
simulated execution therefore yields every crash test of a campaign —
single- or multi-core, verified or not — plus the no-crash event counts
used by the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.obs.metrics import MetricRegistry

from repro.memsim.blocks import BLOCK_SIZE
from repro.memsim.config import HierarchyConfig
from repro.memsim.golden import GoldenRecorder, GoldenStore
from repro.memsim.hierarchy import CacheHierarchy
from repro.nvct.heap import DataObject, PersistentHeap
from repro.nvct.plan import PersistencePlan

__all__ = ["Snapshot", "PersistEvent", "RuntimeEvent", "Runtime", "CountingRuntime", "DivergentSplit"]

INIT_REGION = "__init__"
MAIN_REGION = "__main__"  # main-loop code not inside an explicit region


class DivergentSplit(Exception):
    """A ``split_guard`` run met a divergent split (see
    :class:`~repro.memsim.golden.GoldenRecorder`): its later crash images
    depend on which points split stores, so the run is abandoned."""


@dataclass
class Snapshot:
    """State captured at one crash point."""

    index: int
    counter: int
    iteration: int
    region: str
    nvm_state: dict[str, np.ndarray]
    rates: dict[str, float]
    consistent_state: dict[str, np.ndarray] | None = None


@dataclass
class PersistEvent:
    """One persistence operation (a group of cache-block flushes)."""

    region: str
    iteration: int
    blocks_issued: int
    dirty_written: int
    clean_resident: int = 0  # flushed lines that were cached but clean


@dataclass(frozen=True)
class RuntimeEvent:
    """One entry of the runtime's observable event stream.

    The stream is consumed by external validators (``repro.analysis``);
    emission is skipped entirely unless a listener is attached, so the
    hook surface costs nothing in campaigns.

    Kinds: ``store`` (a recorded write, block granularity), ``region_end``
    (with its 1-based execution count, emitted *before* any plan flush at
    that boundary), ``iteration_end`` (likewise before the plan flush),
    and ``persist`` (one object's commit-point flush; ``scheduled`` marks
    plan-driven flushes vs. manual/iterator persists).
    """

    kind: str
    region: str
    iteration: int
    obj: str | None = None
    blocks: int = 0  # store: blocks written; persist: flushes issued
    dirty: int = 0  # persist: dirty blocks written back
    remaining_dirty: int = 0  # persist: object blocks still dirty after it
    exec_count: int = 0  # region_end: 1-based execution count
    scheduled: bool = False  # persist: part of a plan flush group


@dataclass
class RegionProfile:
    """Per-region accounting collected during an instrumented run."""

    accesses: int = 0
    executions: int = 0


@dataclass
class ObjectProfile:
    """Per-data-object access accounting (block granularity)."""

    reads: int = 0
    writes: int = 0
    regions: set[str] = field(default_factory=set)

    @property
    def rw_ratio(self) -> float:
        return self.reads / max(1, self.writes)


class CountingRuntime:
    """Minimal runtime: advances the access counter without cache
    simulation.  Used for the fast profiling pass that measures the total
    access count and the main-loop crash window."""

    #: When set before the application allocates, the heap keeps per-block
    #: NVM write counters for endurance analysis (repro.perf.endurance).
    track_write_counts = False

    def __init__(self) -> None:
        self.counter = 0
        self.window_begin: int | None = None
        self.plan = PersistencePlan.none()
        self.current_region = INIT_REGION
        self.iteration = 0
        self.region_profile: dict[str, RegionProfile] = {}
        self.object_profile: dict[str, ObjectProfile] = {}
        self._iterations_seen = 0
        self._listeners: list[Callable[[RuntimeEvent], None]] = []

    # -- event hook surface ------------------------------------------------------

    def add_listener(self, listener: Callable[[RuntimeEvent], None]) -> None:
        """Subscribe to the runtime's event stream (see RuntimeEvent)."""
        self._listeners.append(listener)

    def _emit(self, event: RuntimeEvent) -> None:
        for listener in self._listeners:
            listener(event)

    def publish_metrics(self, reg: "MetricRegistry") -> None:
        """Fold this run's aggregate accounting into the telemetry
        registry (``repro.obs``).  Called once at the end of a run by the
        campaign layer when telemetry is enabled — the access hot path is
        never touched."""
        reg.counter("runtime.accesses", unit="blocks").inc(self.counter)
        reg.counter("runtime.iterations", unit="iterations").inc(self._iterations_seen)
        region_hist = reg.histogram("runtime.region_accesses", unit="blocks")
        for rid, prof in self.region_profile.items():
            if not rid.startswith("__"):
                region_hist.observe(prof.accesses)

    def _tick_object(self, obj: DataObject, nblocks: int, write: bool) -> None:
        prof = self.object_profile.setdefault(obj.name, ObjectProfile())
        if write:
            prof.writes += nblocks
        else:
            prof.reads += nblocks
        prof.regions.add(self.current_region)
        if write and self._listeners:
            self._emit(
                RuntimeEvent(
                    "store", self.current_region, self.iteration,
                    obj=obj.name, blocks=nblocks,
                )
            )

    # -- structure hooks -------------------------------------------------------

    def attach_heap(self, heap: PersistentHeap) -> None:
        self.heap = heap

    def main_loop_begin(self) -> None:
        if self.window_begin is None:
            self.window_begin = self.counter
        self.current_region = MAIN_REGION

    def main_loop_end(self) -> None:
        self.current_region = INIT_REGION

    def begin_iteration(self, it: int) -> None:
        self.iteration = it

    def end_iteration(self) -> None:
        """Called after the iterator store at the end of each main-loop
        iteration; executes iteration-granularity plan flushes."""
        self._iterations_seen += 1
        if self._listeners:
            self._emit(
                RuntimeEvent(
                    "iteration_end", self.current_region, self.iteration,
                    exec_count=self._iterations_seen,
                )
            )
        plan = self.plan
        if (
            plan.at_iteration_end
            and plan.objects
            and self._iterations_seen % plan.iteration_frequency == 0
        ):
            self._persist_named(plan.objects)
        if plan.persist_iterator and (it_obj := self.heap.iterator_object()) is not None:
            self.persist_object(it_obj)

    def region_begin(self, rid: str) -> None:
        self.current_region = rid

    def region_end(self, rid: str) -> None:
        prof = self.region_profile.setdefault(rid, RegionProfile())
        prof.executions += 1
        if self._listeners:
            self._emit(
                RuntimeEvent(
                    "region_end", rid, self.iteration, exec_count=prof.executions
                )
            )
        if self.plan.flushes_at(rid, prof.executions) and self.plan.objects:
            self._persist_named(self.plan.objects)
        self.current_region = MAIN_REGION

    # -- access hooks ------------------------------------------------------------

    def _tick(self, nblocks: int) -> None:
        self.counter += nblocks
        prof = self.region_profile.setdefault(self.current_region, RegionProfile())
        prof.accesses += nblocks

    def load_range(self, obj: DataObject, byte_lo: int, byte_hi: int) -> None:
        b0, b1 = obj.block_range_of_bytes(byte_lo, byte_hi)
        self._tick(b1 - b0)
        self._tick_object(obj, b1 - b0, write=False)

    def store_range(
        self,
        obj: DataObject,
        byte_lo: int,
        byte_hi: int,
        fast_assign: Callable[[], None],
        make_src: Callable[[], np.ndarray] | None,
    ) -> None:
        fast_assign()
        b0, b1 = obj.block_range_of_bytes(byte_lo, byte_hi)
        self._tick(b1 - b0)
        self._tick_object(obj, b1 - b0, write=True)

    def access_scattered(
        self,
        obj: DataObject,
        blocks: np.ndarray,
        write: bool,
        apply_op: Callable[[], None] | None = None,
        nontemporal: bool = False,
    ) -> None:
        if apply_op is not None:
            apply_op()
        self._tick(int(blocks.size))
        self._tick_object(obj, int(blocks.size), write=write)

    def _persist_named(self, names: tuple[str, ...]) -> None:
        pass

    def persist_object(self, obj: DataObject) -> None:
        pass


class Runtime(CountingRuntime):
    """Full instrumented runtime with cache simulation and crash images.

    ``capture_consistent`` also records each crash point's architectural
    bytes (the verified methodology's restart state).  ``split_guard``
    marks a run whose crash points are the union of several shards':
    a divergent split raises :class:`DivergentSplit` instead of silently
    recording images that differ from each shard's own recording."""

    def __init__(
        self,
        hierarchy: HierarchyConfig | None = None,
        plan: PersistencePlan | None = None,
        crash_points: np.ndarray | list[int] | None = None,
        capture_consistent: bool = False,
        golden: bool = True,
        crash_model: "str | None" = None,
        crash_seed: int = 0,
        split_guard: bool = False,
    ) -> None:
        # ``golden=True`` is accepted only because the frozen benchmark
        # (bench/layers.py) still passes it; the next benchmark revision
        # drops it.  The golden pass is the only snapshot engine.
        if golden is not True:
            raise ValueError("the golden pass is the only snapshot engine: golden must be True")
        super().__init__()
        self.hierarchy_config = hierarchy or HierarchyConfig.scaled_llc()
        self.plan = plan or PersistencePlan.none()
        pts = np.unique(np.asarray(crash_points if crash_points is not None else [], dtype=np.int64))
        self.crash_points = pts
        self._cp_i = 0
        self.capture_consistent = capture_consistent
        self.split_guard = split_guard
        # Crash model (repro.memsim.crashmodel): None / the default keeps
        # the paper's whole-cache-loss path bit-identical and free — store
        # sequence numbers are only tracked for a non-default model with
        # crash points scheduled.
        self.crash_seed = int(crash_seed)
        self._crash_model = None
        if crash_model is not None and pts.size > 0:
            from repro.memsim.crashmodel import get_model

            model = get_model(crash_model)
            if not model.is_default:
                self._crash_model = model
        self._store_seq_arr: np.ndarray | None = None
        self._store_seq = 0
        # Installed at attach_heap when crash points are scheduled.
        self._golden_recorder: GoldenRecorder | None = None
        self.persist_events: list[PersistEvent] = []
        self.heap: PersistentHeap | None = None
        self.hierarchy: CacheHierarchy | None = None

    # -- wiring ---------------------------------------------------------------

    def attach_heap(self, heap: PersistentHeap) -> None:
        self.heap = heap
        self.hierarchy = self._build_hierarchy(heap)
        if self.crash_points.size:
            self._golden_recorder = GoldenRecorder(
                heap, int(self.crash_points.size), self.capture_consistent
            )
            heap.set_delta_sink(self._golden_recorder.on_writeback)

    def _build_hierarchy(self, heap: PersistentHeap) -> CacheHierarchy:
        return CacheHierarchy(self.hierarchy_config, writeback_sink=heap.writeback_blocks)

    def _require(self) -> tuple[PersistentHeap, CacheHierarchy]:
        if self.heap is None or self.hierarchy is None:
            raise RuntimeError("runtime has no attached heap (allocate via Workspace)")
        return self.heap, self.hierarchy

    def _do_flush(self, b0: int, b1: int, invalidate: bool) -> tuple[int, int]:
        """Flush one object's block range: every plan and manual persist
        goes through here."""
        return self.hierarchy.flush(b0, b1, invalidate=invalidate)

    # -- structure hooks --------------------------------------------------------

    def main_loop_begin(self) -> None:
        heap, _ = self._require()
        if self.window_begin is None:
            # Initialization data counts as persistent: a restart re-runs the
            # init phase anyway before loading candidates from NVM.
            for obj in heap.objects.values():
                obj.sync_nvm()
            self.window_begin = self.counter
            if self._golden_recorder is not None:
                self._golden_recorder.mark_base()
        self.current_region = MAIN_REGION

    # -- persistence --------------------------------------------------------------

    def _persist_named(self, names: tuple[str, ...]) -> None:
        heap, hier = self._require()
        issued = 0
        dirty = 0
        clean_before = hier.llc.stats.flush_clean_hits
        for name in names:
            obj = heap.objects[name]
            i, d = self._do_flush(obj.base_block, obj.end_block, self.plan.invalidate)
            issued += i
            dirty += d
            if self._listeners:
                self._emit_persist(obj, i, d, scheduled=True)
        clean = hier.llc.stats.flush_clean_hits - clean_before
        self.persist_events.append(
            PersistEvent(self.current_region, self.iteration, issued, dirty, clean)
        )

    def persist_object(self, obj: DataObject) -> None:
        _, hier = self._require()
        i, d = self._do_flush(obj.base_block, obj.end_block, self.plan.invalidate)
        if self._listeners:
            self._emit_persist(obj, i, d, scheduled=False)

    def _emit_persist(self, obj: DataObject, issued: int, dirty: int, scheduled: bool) -> None:
        _, hier = self._require()
        resident = hier.resident_dirty_blocks()
        remaining = int(
            np.count_nonzero((resident >= obj.base_block) & (resident < obj.end_block))
        )
        self._emit(
            RuntimeEvent(
                "persist", self.current_region, self.iteration,
                obj=obj.name, blocks=issued, dirty=dirty,
                remaining_dirty=remaining, scheduled=scheduled,
            )
        )

    # -- crash machinery -------------------------------------------------------------

    def _next_cp(self) -> int | None:
        if self._cp_i < self.crash_points.size:
            return int(self.crash_points[self._cp_i])
        return None

    def _mark_stored(self, b0: int, b1: int) -> None:
        """Stamp a contiguous stored block range with fresh sequence
        numbers (crash-model WPQ / in-flight tracking; no-op without an
        active model)."""
        if self._crash_model is None or b1 <= b0:
            return
        arr = self._seq_array(b1)
        n = b1 - b0
        arr[b0:b1] = np.arange(self._store_seq + 1, self._store_seq + 1 + n)
        self._store_seq += n

    def _mark_stored_blocks(self, blocks: np.ndarray) -> None:
        if self._crash_model is None or blocks.size == 0:
            return
        arr = self._seq_array(int(blocks.max()) + 1)
        n = int(blocks.size)
        # Fancy assignment: the last occurrence of a duplicate block wins,
        # matching store order.
        arr[blocks] = np.arange(self._store_seq + 1, self._store_seq + 1 + n)
        self._store_seq += n

    def _seq_array(self, needed: int) -> np.ndarray:
        arr = self._store_seq_arr
        heap = self.heap
        size = max(needed, heap.total_blocks() if heap is not None else 0)
        if arr is None or arr.size < size:
            grown = np.zeros(size, dtype=np.int64)
            if arr is not None:
                grown[: arr.size] = arr
            self._store_seq_arr = arr = grown
        return arr

    def _model_survivors(self) -> dict[str, tuple[np.ndarray, np.ndarray, int]] | None:
        """Survivor overlays of the active crash model at the current
        crash point: ``{name: (byte_idx, values, fixed)}`` where ``fixed``
        counts overlay bytes that differ from the NVM image (i.e. bytes
        the model repairs, for exact rate adjustment)."""
        model = self._crash_model
        if model is None:
            return None
        from repro.util.rng import derive_rng

        heap, hier = self._require()
        rng = derive_rng(self.crash_seed, "crash-model", model.spec, self.counter)
        seq = self._seq_array(heap.total_blocks())
        out: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
        for name, (idx, vals) in model.survivor_overlays(heap, hier, seq, rng).items():
            obj = heap.objects[name]
            fixed = int(np.count_nonzero(vals != obj.nvm_bytes[idx]))
            out[name] = (idx, vals, fixed)
        return out

    def _take_snapshot(self) -> None:
        # Metadata + incrementally maintained rates only; the NVM image is
        # reconstructed later from write-back deltas (plus the crash
        # model's survivor overlay, if any).
        rec = self._golden_recorder
        assert rec is not None, "crash point reached before attach_heap"
        rec.take(self.counter, self.iteration, self.current_region, extras=self._model_survivors())
        self._cp_i += 1

    def _tick_region(self, nblocks: int) -> None:
        prof = self.region_profile.setdefault(self.current_region, RegionProfile())
        prof.accesses += nblocks

    # -- access hooks -------------------------------------------------------------

    def load_range(self, obj: DataObject, byte_lo: int, byte_hi: int) -> None:
        _, hier = self._require()
        b0, b1 = obj.block_range_of_bytes(byte_lo, byte_hi)
        self._tick_region(b1 - b0)
        self._tick_object(obj, b1 - b0, write=False)
        while b0 < b1:
            cp = self._next_cp()
            if cp is None or cp > self.counter + (b1 - b0):
                hier.access(b0, b1, write=False)
                self.counter += b1 - b0
                return
            k = cp - self.counter
            hier.access(b0, b0 + k, write=False)
            self.counter = cp
            b0 += k
            self._take_snapshot()

    def store_range(
        self,
        obj: DataObject,
        byte_lo: int,
        byte_hi: int,
        fast_assign: Callable[[], None],
        make_src: Callable[[], np.ndarray] | None,
    ) -> None:
        """Bulk store of a contiguous byte range of one object.

        ``fast_assign`` performs the whole assignment; ``make_src``
        materializes the stored bytes so the store can be applied
        *incrementally* when a crash point splits it (keeping the invariant
        that architectural state never contains values from stores that did
        not execute).  ``make_src=None`` marks a non-contiguous store that
        must be treated atomically: a crash inside it fires just before it.
        """
        _, hier = self._require()
        b0, b1 = obj.block_range_of_bytes(byte_lo, byte_hi)
        n = b1 - b0
        self._tick_region(n)
        self._tick_object(obj, n, write=True)
        cp = self._next_cp()
        if cp is None or cp > self.counter + n:
            fast_assign()
            if n and (rec := self._golden_recorder) is not None:
                rec.on_store(obj, byte_lo, byte_hi)
            self._mark_stored(b0, b1)
            if n:
                hier.access(b0, b1, write=True)
            self.counter += n
            return
        if make_src is None:
            # Atomic store: crash lands at the op boundary (before it).
            end = self.counter + n
            while (cp := self._next_cp()) is not None and cp <= end:
                self.counter = cp  # clamp to the point for bookkeeping
                self._take_snapshot()
            fast_assign()
            if n and (rec := self._golden_recorder) is not None:
                rec.on_store(obj, byte_lo, byte_hi)
            self._mark_stored(b0, b1)
            if n:
                hier.access(b0, b1, write=True)
            self.counter = end
            return
        src = np.asarray(make_src(), dtype=np.uint8)
        rec = self._golden_recorder
        base_byte = obj.base_byte
        pos = byte_lo  # object-relative byte cursor
        while pos < byte_hi:
            cp = self._next_cp()
            remaining_blocks = obj.block_range_of_bytes(pos, byte_hi)
            rb0, rb1 = remaining_blocks
            if cp is None or cp > self.counter + (rb1 - rb0):
                cut = byte_hi
                blocks_done = rb1 - rb0
            else:
                k = cp - self.counter
                # Byte boundary of the k-th touched block (object-relative).
                cut = min(byte_hi, (rb0 + k) * BLOCK_SIZE - base_byte)
                blocks_done = k
            obj.data_bytes[pos:cut] = src[pos - byte_lo : cut - byte_lo]
            if cut > pos and rec is not None:
                rec.on_store(obj, pos, cut)
            if cut > pos:
                self._mark_stored(*obj.block_range_of_bytes(pos, cut))
            if blocks_done:
                if cut < byte_hi and rec is not None:
                    # Watch the unexecuted tail while the prefix simulates.
                    seen = rec.divergent_splits
                    rec.split_tail = (obj.name, cut // BLOCK_SIZE, rb1 - obj.base_block)
                    hier.access(rb0, rb0 + blocks_done, write=True)
                    rec.split_tail = None
                    if self.split_guard and rec.divergent_splits > seen:
                        raise DivergentSplit(
                            f"{obj.name}: a write-back at counter {cp} persisted "
                            "bytes of a split store's unexecuted tail"
                        )
                else:
                    hier.access(rb0, rb0 + blocks_done, write=True)
            self.counter += blocks_done
            pos = cut
            if cp is not None and self.counter == cp:
                self._take_snapshot()

    def access_scattered(
        self,
        obj: DataObject,
        blocks: np.ndarray,
        write: bool,
        apply_op: Callable[[], None] | None = None,
        nontemporal: bool = False,
    ) -> None:
        """Gather/scatter access over arbitrary blocks (atomic wrt crashes:
        a crash point inside the op fires just before the op's effects).

        ``nontemporal`` stores bypass the cache and land directly in NVM
        (MOVNT semantics) — only meaningful with ``write=True``.
        """
        _, hier = self._require()
        n = int(blocks.size)
        self._tick_region(n)
        self._tick_object(obj, n, write=write)
        end = self.counter + n
        while (cp := self._next_cp()) is not None and cp <= end:
            self.counter = cp
            self._take_snapshot()
        if apply_op is not None:
            apply_op()
            if write and n and (rec := self._golden_recorder) is not None:
                rec.on_store_blocks(obj, blocks)
        if write and n and not nontemporal:
            self._mark_stored_blocks(np.asarray(blocks, dtype=np.int64))
        if n:
            if nontemporal and write:
                hier.store_nontemporal(blocks)
            else:
                hier.access_blocks(blocks, write)
        self.counter = end

    # -- end-of-run ---------------------------------------------------------------

    def publish_metrics(self, reg: "MetricRegistry") -> None:
        """Counting-runtime metrics plus cache-level counters, persist
        accounting and end-of-run dirty-line residency."""
        super().publish_metrics(reg)
        if self.hierarchy is not None:
            self.hierarchy.stats.publish(reg, "memsim")
            reg.gauge("runtime.dirty_resident_blocks", unit="blocks").set(
                int(self.hierarchy.resident_dirty_blocks().size)
            )
        reg.counter("persist.ops", unit="ops").inc(len(self.persist_events))
        dirty_hist = reg.histogram("persist.dirty_per_op", unit="blocks")
        for ev in self.persist_events:
            reg.counter("persist.blocks_issued", unit="blocks").inc(ev.blocks_issued)
            reg.counter("persist.dirty_written", unit="blocks").inc(ev.dirty_written)
            reg.counter("persist.clean_resident", unit="blocks").inc(ev.clean_resident)
            dirty_hist.observe(ev.dirty_written)
        if (grec := self._golden_recorder) is not None:
            reg.counter("golden.deltas_recorded", unit="events").inc(grec.deltas_recorded)
            reg.counter("golden.delta_bytes", unit="bytes").inc(grec.delta_bytes)
            reg.counter("golden.divergent_splits", unit="events").inc(grec.divergent_splits)
        reg.counter("runtime.snapshots", unit="snapshots").inc(grec.n_taken if grec else 0)

    def golden_store(self) -> GoldenStore:
        """Freeze the golden-pass delta log into a replayable
        :class:`~repro.memsim.golden.GoldenStore` (after the run); a run
        without crash points yields an empty store."""
        heap, _ = self._require()
        return (self._golden_recorder or GoldenRecorder(heap, 0)).build_store()

    def finalize(self) -> None:
        """Called after a completed run; remaining scheduled crash points
        (if any) fire at the final counter value."""
        while self._next_cp() is not None:
            self._take_snapshot()
