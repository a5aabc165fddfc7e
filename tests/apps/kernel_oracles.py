"""The EP and IS kernels as they were before their bit-exact speed-ups.

``LegacyEP`` keeps the full-batch Box-Muller (``log``/``sqrt`` over every
pair, accepted ones picked afterwards) and the ``states / 2**64``
uniform draw, and restarts every image in full (no restart pre-check);
``LegacyIS`` keeps the ``int64`` timsort of R4 and the per-bucket sort
loop of ``reference_outcome``.  They subclass the production apps, so
allocation, initialization, restart and verification are shared and
only the kernels differ: anything the two produce differently is a
change of the kernels' bits.

``BalancedIS`` draws every bucket equally often, so an ``n_buckets``
beyond 16 bits (the wide-dtype path of R4's sort) fits its per-bucket
capacity without the thousands of keys per bucket uniform keys need.
"""

from __future__ import annotations

import numpy as np

from repro.apps.ep import EP
from repro.apps.is_ import IS
from repro.errors import RestartInterrupted
from repro.util.rng import derive_rng


class LegacyEP(EP):
    def restart_fails(self, start_iter: int, limit: int) -> bool:
        return False

    def _lcg_batch(self, count: int) -> np.ndarray:
        assert count == self._apow.size
        with np.errstate(over="ignore"):
            states = self._apow * np.uint64(self._lcg_state) + self._cpre
        self._lcg_state = int(states[-1])
        return states / float(1 << 64)

    def _iterate(self, it: int) -> bool:
        ws = self.ws
        with ws.region("R1"):
            u = self._lcg_batch(2 * self.batch_size)
            xy = 2.0 * u.reshape(self.batch_size, 2) - 1.0
            self.pairs.write(slice(None), xy)
        with ws.region("R2"):
            xy = self.pairs.read()
            t = xy[:, 0] ** 2 + xy[:, 1] ** 2
            acc = (t <= 1.0) & (t > 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                f = np.sqrt(-2.0 * np.log(t) / t)
            gx = xy[acc, 0] * f[acc]
            gy = xy[acc, 1] * f[acc]
            m = np.maximum(np.abs(gx), np.abs(gy))
            counts = np.bincount(np.minimum(m, 9.999).astype(int), minlength=10)[:10]
            self.q.update(slice(None), lambda q: np.add(q, counts, out=q))
            self.sx.set(float(self.sx.peek()) + float(gx.sum()))
            self.sy.set(float(self.sy.peek()) + float(gy.sum()))
        return False


class LegacyIS(IS):
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
            order = np.argsort(buckets, kind="stable")
            sorted_buckets = buckets[order]
            offs = self.offsets.read().copy()
            group_start = np.searchsorted(sorted_buckets, np.arange(self.n_buckets))
            within = np.arange(self.n_keys) - group_start[sorted_buckets]
            pos = offs[sorted_buckets] + within
            self.offsets.update(slice(None), lambda o: np.add(o, counts, out=o))
        with ws.region("R5"):
            limit = (sorted_buckets + 1) * self.bucket_cap
            if np.any(pos >= limit) or np.any(pos < 0):
                raise IndexError("IS bucket overflow: inconsistent offsets")
            self.store.write_at(pos, keys[order], nontemporal=True)
        with ws.region("R6"):
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

    def reference_outcome(self) -> dict[str, float]:
        fill, store = self._final_state()
        total = int(fill.sum())
        digest = 0
        for b in range(self.n_buckets):
            lo = b * self.bucket_cap
            seg = np.sort(store[lo : lo + max(int(fill[b]), 0)])
            digest = (digest * 1000003 + int(seg.sum()) + int((seg * np.arange(1, seg.size + 1)).sum())) % (1 << 61)
        return {"total": float(total), "digest": float(digest)}


class BalancedKeys:
    """Mixin for :class:`IS` and :class:`LegacyIS`: each batch holds
    ``n_keys // n_buckets`` keys of every bucket, shuffled, so equal
    bucket ids sit at scattered positions and only a stable sort puts
    them where the store expects."""

    def _batch_keys(self, it: int) -> np.ndarray:
        per, rest = divmod(self.n_keys, self.n_buckets)
        assert rest == 0, "n_keys must be a multiple of n_buckets"
        rng = derive_rng(self.seed, "is-balanced", it)
        width = self.key_max // self.n_buckets
        low = rng.integers(0, width, size=self.n_keys, dtype=np.int64)
        keys = np.repeat(np.arange(self.n_buckets, dtype=np.int64), per) * width + low
        return rng.permutation(keys)


class BalancedIS(BalancedKeys, IS):
    pass


class BalancedLegacyIS(BalancedKeys, LegacyIS):
    pass
