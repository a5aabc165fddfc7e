"""IS: incremental integer bucket sort (NPB IS analogue).

Each iteration generates a deterministic batch of keys and inserts it
into per-bucket regions of a sorted store using a persistent
``offsets`` array (next free slot per bucket).  The scatter positions
are fully determined by ``offsets``, so replaying an iteration whose
inserts were partially persisted is idempotent — *except* for the
offsets themselves:

Space in each bucket is *reserved* (``offsets += counts``) before the
scatter fills it — a standard reserve-then-fill sorting idiom.  Under a
crash this is exactly what makes IS fragile:

* stale offsets make the replay overwrite earlier batches → the final
  verification (counts + per-bucket membership) fails (S4);
* offsets already written back when the crash fires make the replay
  *double-reserve*, leaving unwritten holes and eventually running past a
  bucket's capacity → an out-of-bounds index, the analogue of the paper's
  IS segfault (S3).

With EasyCrash persisting the tiny critical objects (``offsets`` and
``hist`` — the paper reports a 4 KB critical data object for IS) together
with the loop iterator, the replay is exact: the scatter itself is
idempotent given consistent offsets.

Regions (Table 1 lists 8): R1 key generation, R2 bucket mapping,
R3 histogram update, R4 reservation (position computation + offsets
advance), R5 scatter into the store, R6 partial verification,
R7 digest sampling, R8 monitoring.

R4 stable-sorts the bucket ids in the smallest unsigned dtype that holds
``n_buckets - 1`` (``uint16`` at the default 512 buckets), where NumPy's
stable sort is a radix sort instead of the timsort it runs on ``int64``.
A stable sorting permutation is unique, so ``order`` is the same array
either way.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application
from repro.errors import RestartInterrupted
from repro.util.rng import derive_rng

__all__ = ["IS"]


class IS(Application):
    NAME = "IS"
    REGIONS = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8")
    DEFAULT_MAX_FACTOR = 1.0

    def __init__(
        self,
        runtime=None,
        n_keys: int = 1 << 16,
        n_buckets: int = 512,
        nit: int = 10,
        seed: int = 2020,
        **kw,
    ):
        super().__init__(
            runtime, n_keys=n_keys, n_buckets=n_buckets, nit=nit, seed=seed, **kw
        )
        self.n_keys = n_keys  # keys per iteration batch
        self.n_buckets = n_buckets
        self.nit = nit
        self.seed = seed
        self.key_max = n_buckets * 256
        # Per-bucket capacity with slack over the expected fill.
        expected = nit * n_keys / n_buckets
        self.bucket_cap = int(expected * 1.35)
        self._bucket_dtype = np.min_scalar_type(n_buckets - 1)

    def nominal_iterations(self) -> int:
        return self.nit

    def _allocate(self) -> None:
        self.keys = self.ws.array("keys", (self.n_keys,), np.int64, candidate=True)
        self.store = self.ws.array(
            "store", (self.n_buckets * self.bucket_cap,), np.int64, candidate=True
        )
        self.offsets = self.ws.array("offsets", (self.n_buckets,), np.int64, candidate=True)
        self.hist = self.ws.array("hist", (self.n_buckets,), np.int64, candidate=True)

    def _initialize(self) -> None:
        self.keys.np[...] = 0
        self.store.np[...] = -1
        self.offsets.np[...] = np.arange(self.n_buckets, dtype=np.int64) * self.bucket_cap
        self.hist.np[...] = 0

    def _batch_keys(self, it: int) -> np.ndarray:
        rng = derive_rng(self.seed, "is-batch", it)
        return rng.integers(0, self.key_max, size=self.n_keys, dtype=np.int64)

    def _iterate(self, it: int) -> bool:
        ws = self.ws
        with ws.region("R1"):
            batch = self._batch_keys(it)
            self.keys.write(slice(None), batch)
        with ws.region("R2"):
            keys = self.keys.read()
            buckets = (keys * self.n_buckets // self.key_max).astype(np.int64)
        with ws.region("R3"):
            counts = np.bincount(buckets, minlength=self.n_buckets).astype(np.int64)
            self.hist.update(slice(None), lambda h: np.add(h, counts, out=h))
        with ws.region("R4"):
            # Reserve per-bucket space, then fill: positions derive from the
            # pre-advance offsets.
            order = np.argsort(buckets.astype(self._bucket_dtype), kind="stable")
            sorted_buckets = buckets[order]
            offs = self.offsets.read().copy()
            group_start = np.searchsorted(sorted_buckets, np.arange(self.n_buckets))
            within = np.arange(self.n_keys) - group_start[sorted_buckets]
            pos = offs[sorted_buckets] + within
            self.offsets.update(slice(None), lambda o: np.add(o, counts, out=o))
        with ws.region("R5"):
            limit = (sorted_buckets + 1) * self.bucket_cap
            if np.any(pos >= limit) or np.any(pos < 0):
                # Buffer overrun: the segfault analogue (paper: IS crashes
                # with inconsistent bucket pointers cannot even restart).
                raise IndexError("IS bucket overflow: inconsistent offsets")
            # Streaming (non-temporal) scatter, as real sorting kernels use
            # for write-once output buffers: the store bypasses the cache,
            # so the sorted store is always consistent in NVM and only the
            # tiny reservation state (offsets/hist) is crash-critical —
            # matching the paper's 4 KB critical data object for IS.
            self.store.write_at(pos, keys[order], nontemporal=True)
        with ws.region("R6"):
            # Partial verification: spot-check bucket fill levels so far.
            offs_now = self.offsets.read()
            fill = offs_now - np.arange(self.n_buckets) * self.bucket_cap
            if np.any(fill < 0) or np.any(fill > self.bucket_cap):
                raise RestartInterrupted("IS partial verification: bad fill levels")
        with ws.region("R7"):
            sample = self.store.read((slice(0, 4 * self.bucket_cap),))
            _ = int(sample[:: max(1, sample.size // 512)].sum())
        with ws.region("R8"):
            self.keys.read()
        return False

    # -- verification -------------------------------------------------------------

    def _final_state(self) -> tuple[np.ndarray, np.ndarray]:
        offs = self.offsets.np
        fill = offs - np.arange(self.n_buckets) * self.bucket_cap
        return fill, self.store.np

    def _bucket_sums(self, fill: np.ndarray, store: np.ndarray) -> tuple[list[int], list[int]]:
        """Per bucket, over its first ``fill`` keys sorted ascending: the
        keys' sum and their rank-weighted sum (ranks from 1), both as
        wrapping ``int64`` sums.

        One row sort of ``store.reshape(n_buckets, cap)`` (in blocks of
        rows) when every fill is in ``[0, cap]``: each row is padded past
        its fill with the dtype's largest value, which sorts last, and the
        padding's share is subtracted again; ``int64`` wraparound makes
        the sums order-independent.  The rows sort as ``int32`` when
        every value fits (twice as fast).  A fill outside ``[0, cap]``
        makes a bucket's slice run into the next one: each bucket sorts
        alone.
        """
        cap = self.bucket_cap
        if fill.min() < 0 or fill.max() > cap:
            segs = [np.sort(store[b * cap : b * cap + max(int(f), 0)]) for b, f in enumerate(fill)]
            return (
                [int(seg.sum()) for seg in segs],
                [int((seg * np.arange(1, seg.size + 1)).sum()) for seg in segs],
            )
        width = int(fill.max())
        grid = store.reshape(self.n_buckets, cap)[:, :width]
        i32 = np.iinfo(np.int32)
        narrow = grid.size == 0 or (i32.min <= grid.min() and grid.max() < i32.max)
        dtype = np.int32 if narrow else np.int64
        pad = int(np.iinfo(dtype).max)
        ranks = np.arange(1, width + 1)
        sums, ranked = np.empty((2, self.n_buckets), dtype=np.int64)
        # A few rows per sort: the sorted copy stays small next to the store.
        for lo in range(0, self.n_buckets, 16):
            hi = lo + 16
            rows = grid[lo:hi].astype(dtype)
            for b in np.flatnonzero(fill[lo:hi] < width).tolist():
                rows[b, fill[lo + b] :] = pad
            rows.sort(axis=1)
            sums[lo:hi] = rows.sum(axis=1, dtype=np.int64)
            ranked[lo:hi] = np.einsum("ij,j->i", rows, ranks, dtype=np.int64)
        sums -= (width - fill) * pad
        ranked -= (width * (width + 1) - fill * (fill + 1)) // 2 * pad
        return sums.tolist(), ranked.tolist()

    def reference_outcome(self) -> dict[str, float]:
        fill, store = self._final_state()
        total = int(fill.sum())
        # Order-sensitive digest over the stored keys (exact sort check).
        digest = 0
        for s, w in zip(*self._bucket_sums(fill, store)):
            digest = (digest * 1000003 + s + w) % (1 << 61)
        return {"total": float(total), "digest": float(digest)}

    def verify(self) -> bool:
        if self.golden is None:
            return True
        fill, store = self._final_state()
        if np.any(fill < 0) or np.any(fill > self.bucket_cap):
            return False
        # The running histogram must agree with the actual fill levels.
        if not np.array_equal(self.hist.np, fill):
            return False
        # Keys must land in the right buckets (sortedness across buckets).
        for b in range(0, self.n_buckets, max(1, self.n_buckets // 64)):
            lo = b * self.bucket_cap
            seg = store[lo : lo + int(fill[b])]
            if seg.size and (
                np.any(seg * self.n_buckets // self.key_max != b)
            ):
                return False
        out = self.reference_outcome()
        return out["total"] == self.golden["total"] and out["digest"] == self.golden["digest"]
