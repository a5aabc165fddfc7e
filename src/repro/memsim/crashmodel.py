"""Pluggable crash models: what survives a failure besides the NVM image.

The paper (EasyCrash, CLUSTER 2020) models exactly one failure mode: the
whole cache hierarchy vanishes and only the NVM image survives.  Real
platforms sit on a spectrum of persistence domains:

``whole-cache-loss``
    The paper's model and the default.  Caches are volatile; a crash
    leaves the NVM image exactly as the last write-back left it.
``adr``
    Asynchronous DRAM Refresh: the memory controller's bounded
    write-pending queue is inside the persistence domain.  Under the
    simulator's instant write-back idealization a literal WPQ of already
    written-back lines is indistinguishable from ``whole-cache-loss``, so
    the model drains the ``wpq`` *most recently stored* dirty cache lines
    (the lines an ADR-backed controller's queue would hold at the moment
    of failure) — excluding the in-flight line, which ADR does not
    protect mid-store.
``eadr``
    Extended ADR: the platform flushes *all* dirty cache contents on
    power failure.  Only the single in-flight store can be lost, and it
    tears at ``granularity``-byte boundaries: a seeded prefix of the
    in-flight line persists.
``torn``
    No residual-energy domain at all, but multi-word stores tear:
    the in-flight line persists a seeded ``granularity``-aligned prefix
    while every other dirty line is lost (``whole-cache-loss`` plus torn
    writes).

Each model reduces to a *survivor plan* over the dirty cache blocks at
the crash point: a set of blocks persisted in full plus at most one
partial (in-flight) block with a surviving byte prefix.  Survivor bytes
are overlaid onto the NVM image with the block's architectural bytes —
overlays can only make NVM bytes *equal* to architectural state, which
yields the structural guarantee tested in CI::

    inconsistent-rate(eadr) <= inconsistent-rate(adr) <= inconsistent-rate(whole-cache-loss)

holding exactly, per crash point and per object (eADR's survivor set is
a superset of ADR's, which is a superset of the empty set).

Determinism: the only randomness is the torn-prefix draw, taken from a
generator derived as ``derive_rng(seed, "crash-model", spec, counter)``
per crash point — same seed, same model, same point ⇒ bit-identical
crash image.  The test-tree oracle ``tests/memsim/reference_oracle.py``
carries a slow pure-Python mirror of the survivor-plan selection as the
per-model check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import UsageError
from repro.memsim.blocks import BLOCK_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (heap lives in nvct)
    from repro.memsim.hierarchy import CacheHierarchy
    from repro.nvct.heap import PersistentHeap

__all__ = [
    "DEFAULT_CRASH_MODEL",
    "CrashModel",
    "WholeCacheLoss",
    "Adr",
    "Eadr",
    "Torn",
    "get_model",
    "in_flight_block",
]

#: Spec string of the paper's (and the campaign engine's default) model.
DEFAULT_CRASH_MODEL = "whole-cache-loss"

#: Default write-pending-queue depth for ``adr`` (lines, i.e. 4 KiB at 64 B).
ADR_WPQ_DEPTH = 64

#: Default tear granularity in bytes for ``eadr`` and ``torn`` (one
#: machine word on the paper's platform is 8 bytes).
TEAR_GRANULARITY = 8

#: ``(full_blocks, partial)``: absolute block ids persisted in full, plus
#: an optional ``(block, surviving_prefix_bytes)`` in-flight partial.
SurvivorPlan = tuple[np.ndarray, "tuple[int, int] | None"]

_EMPTY_BLOCKS = np.empty(0, dtype=np.int64)


def in_flight_block(dirty_blocks: np.ndarray, store_seq: np.ndarray) -> int:
    """The dirty block holding the in-flight store, or ``-1``.

    The in-flight line is the most recently stored dirty block (highest
    store sequence number, ties broken toward the highest block id).
    Blocks with sequence ``0`` were never stored since tracking began, so
    when nothing has a positive sequence there is no in-flight store.
    """
    if dirty_blocks.size == 0:
        return -1
    top = int(store_seq.max())
    if top <= 0:
        return -1
    return int(dirty_blocks[store_seq == top].max())


class CrashModel:
    """A crash model: which dirty cache bytes survive a failure.

    Subclasses implement :meth:`survivor_plan`; everything else —
    overlay construction, the canonical :attr:`spec`, the high-level
    :meth:`apply` — is shared.
    """

    name: str = ""

    def params(self) -> dict[str, int]:
        """Model parameters, canonicalized (defaults made explicit)."""
        return {}

    @property
    def spec(self) -> str:
        """Canonical spec string (``"adr"`` and ``"adr:wpq=64"`` agree)."""
        params = self.params()
        if not params:
            return self.name
        args = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"{self.name}:{args}"

    @property
    def is_default(self) -> bool:
        return self.name == DEFAULT_CRASH_MODEL

    # -- survivor selection ---------------------------------------------------

    def survivor_plan(
        self,
        dirty_blocks: np.ndarray,
        store_seq: np.ndarray,
        rng: np.random.Generator,
    ) -> SurvivorPlan:
        """Given the sorted dirty block ids and their aligned store
        sequence numbers, return the survivor plan.  ``rng`` is consumed
        only by models with a torn in-flight prefix, and only when an
        in-flight block exists (keeps the draw schedule mirrorable by the
        reference oracle)."""
        raise NotImplementedError

    def _torn_prefix(self, rng: np.random.Generator, granularity: int) -> int:
        """Surviving prefix length of the in-flight line: a uniformly
        drawn number of whole ``granularity``-byte sub-stores."""
        n_granules = BLOCK_SIZE // granularity
        return int(rng.integers(0, n_granules + 1)) * granularity

    # -- overlay construction -------------------------------------------------

    def survivor_overlays(
        self,
        heap: "PersistentHeap",
        hierarchy: "CacheHierarchy",
        store_seq: np.ndarray,
        rng: np.random.Generator,
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Materialize the survivor plan as per-object byte overlays.

        Returns ``{object_name: (byte_idx, values)}`` where ``values``
        are the *architectural* bytes at ``byte_idx`` (object-relative) —
        the bytes the persistence domain drains before the lights go out.
        Only tracked objects (candidates and the iterator) are included;
        objects without survivor bytes are omitted.
        """
        dirty = hierarchy.resident_dirty_blocks()
        if dirty.size == 0:
            return {}
        full, partial = self.survivor_plan(dirty, store_seq[dirty], rng)
        full = np.sort(full)
        overlays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for obj in heap._order:
            if not (obj.candidate or obj.role == "iterator"):
                continue
            base, end = obj.base_block, obj.end_block
            rel = full[(full >= base) & (full < end)] - base
            idx = (rel[:, None] * BLOCK_SIZE + np.arange(BLOCK_SIZE)).ravel()
            parts = [idx[idx < obj.nbytes]]
            if partial is not None:
                pblock, cut = partial
                if base <= pblock < end and cut > 0:
                    lo = (pblock - base) * BLOCK_SIZE
                    parts.append(np.arange(lo, min(lo + cut, obj.nbytes), dtype=np.int64))
            idx = np.sort(np.concatenate(parts)) if len(parts) > 1 else parts[0]
            if idx.size:
                overlays[obj.name] = (idx, obj.data_bytes[idx])
        return overlays

    def apply(
        self,
        hierarchy: "CacheHierarchy",
        nvm: Mapping[str, np.ndarray],
        rng: np.random.Generator,
        *,
        heap: "PersistentHeap",
        store_seq: np.ndarray | None = None,
    ) -> Mapping[str, np.ndarray]:
        """Apply the crash to an NVM image snapshot, in place.

        ``nvm`` maps object names to (mutable) copies of their NVM bytes,
        as produced by ``PersistentHeap.snapshot_nvm()``; survivor bytes
        are overlaid and the patched mapping returned.
        """
        if store_seq is None:
            store_seq = np.zeros(heap.total_blocks(), dtype=np.int64)
        for name, (idx, vals) in self.survivor_overlays(heap, hierarchy, store_seq, rng).items():
            state = nvm.get(name)
            if state is not None:
                state[idx] = vals
        return nvm


class WholeCacheLoss(CrashModel):
    """The paper's model: every dirty cache line is lost."""

    name = DEFAULT_CRASH_MODEL

    def survivor_plan(
        self, dirty_blocks: np.ndarray, store_seq: np.ndarray, rng: np.random.Generator
    ) -> SurvivorPlan:
        return _EMPTY_BLOCKS, None


class Adr(CrashModel):
    """ADR domain: a bounded WPQ of the most recently stored lines drains."""

    name = "adr"

    def __init__(self, wpq: int = ADR_WPQ_DEPTH):
        if wpq < 1:
            raise UsageError(f"crash model adr: wpq must be >= 1, got {wpq}")
        self.wpq = int(wpq)

    def params(self) -> dict[str, int]:
        return {"wpq": self.wpq}

    def survivor_plan(
        self, dirty_blocks: np.ndarray, store_seq: np.ndarray, rng: np.random.Generator
    ) -> SurvivorPlan:
        inflight = in_flight_block(dirty_blocks, store_seq)
        if inflight >= 0:
            keep = dirty_blocks != inflight
            dirty_blocks, store_seq = dirty_blocks[keep], store_seq[keep]
        # Most recent first: ascending (seq, block) lexsort, take the tail.
        order = np.lexsort((dirty_blocks, store_seq))
        return np.sort(dirty_blocks[order[-self.wpq :]]), None


class Eadr(CrashModel):
    """eADR domain: all dirty lines flush; the in-flight store tears."""

    name = "eadr"

    def __init__(self, granularity: int = TEAR_GRANULARITY):
        self.granularity = _check_granularity(self.name, granularity)

    def params(self) -> dict[str, int]:
        return {"granularity": self.granularity}

    def survivor_plan(
        self, dirty_blocks: np.ndarray, store_seq: np.ndarray, rng: np.random.Generator
    ) -> SurvivorPlan:
        inflight = in_flight_block(dirty_blocks, store_seq)
        if inflight < 0:
            return dirty_blocks.copy(), None
        full = dirty_blocks[dirty_blocks != inflight]
        return full, (inflight, self._torn_prefix(rng, self.granularity))


class Torn(CrashModel):
    """Torn writes only: the in-flight store persists a seeded prefix."""

    name = "torn"

    def __init__(self, granularity: int = TEAR_GRANULARITY):
        self.granularity = _check_granularity(self.name, granularity)

    def params(self) -> dict[str, int]:
        return {"granularity": self.granularity}

    def survivor_plan(
        self, dirty_blocks: np.ndarray, store_seq: np.ndarray, rng: np.random.Generator
    ) -> SurvivorPlan:
        inflight = in_flight_block(dirty_blocks, store_seq)
        if inflight < 0:
            return _EMPTY_BLOCKS, None
        return _EMPTY_BLOCKS, (inflight, self._torn_prefix(rng, self.granularity))


def _check_granularity(name: str, granularity: int) -> int:
    g = int(granularity)
    if g < 1 or BLOCK_SIZE % g != 0:
        raise UsageError(
            f"crash model {name}: granularity must divide the {BLOCK_SIZE}-byte "
            f"block size, got {granularity}"
        )
    return g


_MODELS: dict[str, type[CrashModel]] = {
    WholeCacheLoss.name: WholeCacheLoss,
    Adr.name: Adr,
    Eadr.name: Eadr,
    Torn.name: Torn,
}


def get_model(spec: "str | CrashModel") -> CrashModel:
    """Parse a crash-model spec string (``"adr"``, ``"torn:granularity=8"``).

    Parameters follow the model name after a colon, comma-separated
    ``key=value`` pairs with integer values.  Raises :class:`UsageError`
    (CLI exit code 2) for unknown models, parameters, or values.
    """
    if isinstance(spec, CrashModel):
        return spec
    text = str(spec).strip()
    name, _, rest = text.partition(":")
    cls = _MODELS.get(name)
    if cls is None:
        known = ", ".join(sorted(_MODELS))
        raise UsageError(f"unknown crash model {name!r} (known: {known})")
    kwargs: dict[str, int] = {}
    if rest:
        for pair in rest.split(","):
            key, eq, value = pair.partition("=")
            key = key.strip()
            if not eq or not key:
                raise UsageError(f"crash model {name}: malformed parameter {pair!r}")
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise UsageError(
                    f"crash model {name}: parameter {key} needs an integer, got {value!r}"
                ) from None
    try:
        return cls(**kwargs)
    except TypeError:
        raise UsageError(
            f"crash model {name}: unknown parameter(s) {sorted(kwargs)}"
        ) from None
