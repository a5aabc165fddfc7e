"""EP: embarrassingly parallel Monte Carlo Gaussian-pair counting (NPB EP).

Each iteration draws a batch of uniform pairs from a *sequential* linear
congruential generator, applies the Box-Muller acceptance test, and
accumulates the sums ``sx``, ``sy`` and the annulus counts ``q[0..9]``
(the paper's 80-byte candidate set).

The LCG state is a local (stack-like) variable advanced across batches.
The paper's scope persists only heap/global data objects — stack state is
lost at a crash, and this EP (like the paper's) has no jump-ahead, so a
restart cannot reconstruct the stream position.  The replayed batches
draw the wrong numbers, the exact-match verification fails, and EP's
recomputability is 0 with or without EasyCrash — which is why the paper
excludes EP from the EasyCrash evaluation.

So a campaign need not recompute to prove it (:meth:`EP.restart_fails`).
A restart resets the generator to the seed, so resuming at ``start_iter``
replays stream batches ``0 .. limit - start_iter - 1``, and each batch
adds integer ``counts`` to ``q``.  The restart's final ``q`` is therefore
``q_img + P[limit - start_iter]``, with ``P[m]`` the first ``m`` golden
batches' summed counts (the golden run keeps them): when every ``q_img``
element is an integer-valued float with ``|q| < 2^52`` (``P`` is at most
``batches * batch_size``), every partial sum is an integer below 2^53, so
each addition is exact and the order does not matter.  ``verify``
compares ``q`` exactly and nothing in the run can raise, so a ``q`` that
differs from the golden one proves S4.  Any other image (a non-integer,
huge or non-finite ``q``, an iterator outside ``[0, limit]``) or a sum
equal to the golden (the crash-before-first-batch image, a real S1)
restarts in full.

Regions (Table 1 lists 2): ``R1`` generation, ``R2`` accumulation.

The kernel has NPB EP's own shape: ``log``/``sqrt`` run on the accepted
pairs only, and the uniforms are scaled by the exact constant
``2.0**-64``.  Both are bit-exact against computing every pair first:
each element-wise operation sees the same operands (indexing before or
after an element-wise function selects the same values), a power-of-two
scale never rounds, and every reduction runs over the same array in the
same order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.base import Application

__all__ = ["EP"]

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK = (1 << 64) - 1


@lru_cache(maxsize=8)
def _lcg_coefficients(count: int) -> tuple[np.ndarray, np.ndarray]:
    """LCG trajectory coefficients ``(A^i, C_i)`` for ``i = 1..count``, so
    that ``s_i = A^i s_0 + C_i`` and a whole batch vectorizes (modulo 2^64
    via uint64 wraparound).  Built once per count; the arrays are
    read-only because every EP instance shares them."""
    apow = np.empty(count, dtype=np.uint64)
    cpre = np.empty(count, dtype=np.uint64)
    a, c = 1, 0
    for i in range(count):
        a = (a * _LCG_A) & _MASK
        c = (c * _LCG_A + _LCG_C) & _MASK
        apow[i] = a
        cpre[i] = c
    apow.flags.writeable = False
    cpre.flags.writeable = False
    return apow, cpre


class EP(Application):
    NAME = "EP"
    REGIONS = ("R1", "R2")
    DEFAULT_MAX_FACTOR = 1.0

    def __init__(
        self, runtime=None, batches: int = 256, batch_size: int = 4096, seed: int = 2020, **kw
    ):
        super().__init__(runtime, batches=batches, batch_size=batch_size, seed=seed, **kw)
        self.batches = batches
        self.batch_size = batch_size
        self.seed = seed

    def nominal_iterations(self) -> int:
        return self.batches

    def _allocate(self) -> None:
        self.q = self.ws.array("q", (10,), np.float64, candidate=True)
        self.sx = self.ws.scalar("sx", 0.0, np.float64, candidate=True)
        self.sy = self.ws.scalar("sy", 0.0, np.float64, candidate=True)
        # Scratch pair buffer: heap object, but temporary (not a candidate).
        self.pairs = self.ws.array("pairs", (self.batch_size, 2), candidate=False, readonly=False)

    def _initialize(self) -> None:
        self.q.np[...] = 0.0
        self.sx.arr.np[0] = 0.0
        self.sy.arr.np[0] = 0.0
        self.pairs.np[...] = 0.0
        # Sequential generator state: a plain Python attribute — the
        # "stack" state the paper's failure model does not persist.
        self._lcg_state = self.seed & _MASK
        self._apow, self._cpre = _lcg_coefficients(2 * self.batch_size)
        self._counts: list[np.ndarray] = []  # each batch's q increment, in order

    def _lcg_batch(self, count: int) -> np.ndarray:
        """Draw ``count`` uniforms in [0,1) advancing the sequential state."""
        assert count == self._apow.size
        with np.errstate(over="ignore"):
            states = self._apow * np.uint64(self._lcg_state)
            states += self._cpre
        self._lcg_state = int(states[-1])
        u = states.astype(np.float64)
        u *= 2.0**-64
        return u

    def _iterate(self, it: int) -> bool:
        ws = self.ws
        with ws.region("R1"):
            xy = self._lcg_batch(2 * self.batch_size).reshape(self.batch_size, 2)
            xy *= 2.0
            xy -= 1.0
            self.pairs.write(slice(None), xy)
        with ws.region("R2"):
            xy = self.pairs.read()
            x, y = xy[:, 0], xy[:, 1]
            t = x * x + y * y
            acc = (t <= 1.0) & (t > 0.0)
            t = t[acc]
            f = np.sqrt(-2.0 * np.log(t) / t)
            gx = x[acc] * f
            gy = y[acc] * f
            m = np.maximum(np.abs(gx), np.abs(gy))
            counts = np.bincount(np.minimum(m, 9.999).astype(int), minlength=10)[:10]
            self.q.update(slice(None), lambda q: np.add(q, counts, out=q))
            self._counts.append(counts)
            self.sx.set(float(self.sx.peek()) + float(gx.sum()))
            self.sy.set(float(self.sy.peek()) + float(gy.sum()))
        return False

    def precheck_table(self) -> np.ndarray:
        """``P``: row ``m`` holds the first ``m`` batches' summed counts."""
        table = np.zeros((len(self._counts) + 1, 10))
        if self._counts:
            table[1:] = np.cumsum(self._counts, axis=0)
        return table

    def restart_fails(self, start_iter: int, limit: int) -> bool:
        table = self.golden_table
        if self.golden is None or table is None or limit != self.batches:
            return False
        if not 0 <= start_iter <= limit or len(table) != limit + 1:
            return False
        q = self.q.np
        # NaN and +-inf fail the first test.
        if not (np.all(np.abs(q) < 2.0**52) and np.all(q == np.trunc(q))):
            return False
        final = q + table[limit - start_iter]
        return any(final[i] != self.golden[f"q{i}"] for i in range(10))

    def reference_outcome(self) -> dict[str, float]:
        out = {f"q{i}": float(self.q.np[i]) for i in range(10)}
        out["sx"] = float(self.sx.arr.np[0])
        out["sy"] = float(self.sy.arr.np[0])
        return out

    def verify(self) -> bool:
        if self.golden is None:
            return True
        out = self.reference_outcome()
        # NPB EP verification is exact: counts must match and the Gaussian
        # sums must agree to full precision.
        for i in range(10):
            if out[f"q{i}"] != self.golden[f"q{i}"]:
                return False
        return (
            abs(out["sx"] - self.golden["sx"]) <= 1e-12 * max(1.0, abs(self.golden["sx"]))
            and abs(out["sy"] - self.golden["sy"]) <= 1e-12 * max(1.0, abs(self.golden["sy"]))
        )
