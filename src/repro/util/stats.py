"""Statistics over crash-test campaigns.

The paper selects critical data objects with Spearman's rank correlation
between each object's data-inconsistent rate and the recomputation outcome
across a crash-test campaign (Sec. 5.1).  We implement the tie-corrected
coefficient and its two-sided p-value (t approximation); the test suite
cross-checks against ``scipy.stats.spearmanr``.

A campaign's headline figures — recomputability and each response share —
are binomial proportions over its tests; :func:`wilson_interval` gives
their 95 % confidence interval in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SpearmanResult", "spearman", "rankdata_average", "wilson_interval"]

#: Standard normal quantile of the two-sided 95 % level, ``Phi^-1(0.975)``.
Z_95 = 1.959963984540054


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score 95 % interval for a proportion of ``successes`` in
    ``n`` trials; ``(nan, nan)`` when ``n == 0``.

    Unlike the normal (Wald) interval it keeps a nonzero width at 0 and
    ``n`` successes.  The interval always holds ``successes / n`` and lies
    in ``[0, 1]``; the bounds are clamped to both, which only absorbs
    rounding (0 successes give a lower bound of exactly 0)."""
    if n == 0:
        return (float("nan"), float("nan"))
    p = successes / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = Z_95 * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / denom
    return (max(0.0, min(p, center - half)), min(1.0, max(p, center + half)))


def rankdata_average(values: np.ndarray) -> np.ndarray:
    """Rank data (1-based) with ties assigned the average of their ranks.

    Equivalent to ``scipy.stats.rankdata(values, method="average")``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("rankdata_average expects a 1-D array")
    n = values.size
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.arange(1, n + 1, dtype=float)
    # Average ranks within tie groups.
    sorted_vals = values[order]
    # Boundaries of runs of equal values.
    boundary = np.flatnonzero(np.diff(sorted_vals) != 0) + 1
    starts = np.concatenate(([0], boundary))
    ends = np.concatenate((boundary, [n]))
    for lo, hi in zip(starts, ends):
        if hi - lo > 1:
            ranks[order[lo:hi]] = 0.5 * (lo + 1 + hi)
    return ranks


@dataclass(frozen=True)
class SpearmanResult:
    """Spearman rank correlation coefficient and its two-sided p-value."""

    rho: float
    pvalue: float
    n: int

    def significant(self, alpha: float = 0.01) -> bool:
        """True when the correlation is statistically significant."""
        return not math.isnan(self.rho) and self.pvalue < alpha


def _student_t_sf(t: float, df: float) -> float:
    """Survival function of Student's t via the regularized incomplete beta.

    ``P(T > t)`` for ``t >= 0``; symmetric otherwise.
    """
    if df <= 0:
        return float("nan")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    # Imported here, not at module level: every campaign summary loads
    # this module, and importing SciPy costs a few tenths of a second and
    # about 20 MB that only a p-value needs.
    from scipy.special import betainc

    # I_x(df/2, 1/2) = P(|T| > |t|) with x = df / (df + t^2).
    half = 0.5 * float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return half if t >= 0 else 1.0 - half


def spearman(x: np.ndarray, y: np.ndarray) -> SpearmanResult:
    """Spearman rank correlation with a two-sided t-approximation p-value.

    Returns ``rho = nan, p = 1`` when either input is constant (the
    correlation is undefined; such objects are never selected as critical).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman expects two equal-length 1-D arrays")
    n = x.size
    if n < 3:
        return SpearmanResult(float("nan"), 1.0, n)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return SpearmanResult(float("nan"), 1.0, n)
    rx = rankdata_average(x)
    ry = rankdata_average(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        return SpearmanResult(float("nan"), 1.0, n)
    rho = float(rx @ ry) / denom
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) >= 1.0:
        return SpearmanResult(rho, 0.0, n)
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * _student_t_sf(abs(t), n - 2)
    return SpearmanResult(rho, min(1.0, max(0.0, p)), n)
