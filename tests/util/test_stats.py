"""Spearman correlation: cross-checked against scipy and edge cases."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import rankdata_average, spearman, wilson_interval


def test_ranks_simple():
    assert np.array_equal(rankdata_average(np.array([10.0, 20.0, 30.0])), [1, 2, 3])


def test_ranks_ties_average():
    ranks = rankdata_average(np.array([1.0, 2.0, 2.0, 3.0]))
    assert np.array_equal(ranks, [1.0, 2.5, 2.5, 4.0])


def test_ranks_all_equal():
    ranks = rankdata_average(np.full(5, 3.14))
    assert np.allclose(ranks, 3.0)


def test_perfect_monotone_correlation():
    x = np.arange(10, dtype=float)
    res = spearman(x, x**3)
    assert res.rho == pytest.approx(1.0)
    assert res.pvalue == pytest.approx(0.0, abs=1e-12)


def test_perfect_anticorrelation():
    x = np.arange(10, dtype=float)
    res = spearman(x, -x)
    assert res.rho == pytest.approx(-1.0)
    assert res.significant()


def test_constant_input_is_nan_not_selected():
    res = spearman(np.ones(20), np.arange(20.0))
    assert math.isnan(res.rho)
    assert res.pvalue == 1.0
    assert not res.significant()


def test_too_few_samples():
    res = spearman(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    assert math.isnan(res.rho)


def test_matches_scipy_on_random_data():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 200))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        ours = spearman(x, y)
        ref_rho, ref_p = scipy.stats.spearmanr(x, y)
        assert ours.rho == pytest.approx(ref_rho, abs=1e-12)
        assert ours.pvalue == pytest.approx(ref_p, rel=1e-6, abs=1e-12)


def test_matches_scipy_with_heavy_ties():
    # Binary outcome vector vs a few discrete inconsistency levels — the
    # exact shape of EasyCrash's selection inputs.
    rng = np.random.default_rng(1)
    x = rng.choice([0.0, 0.1, 0.25, 0.5], size=120)
    y = (rng.random(120) < 0.5 - 0.6 * x).astype(float)
    ours = spearman(x, y)
    ref_rho, ref_p = scipy.stats.spearmanr(x, y)
    assert ours.rho == pytest.approx(ref_rho, abs=1e-12)
    assert ours.pvalue == pytest.approx(ref_p, rel=1e-6, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=60),
    st.integers(min_value=0, max_value=2**31),
)
def test_property_rho_bounds_and_symmetry(xs, seed):
    rng = np.random.default_rng(seed)
    x = np.array(xs, dtype=float)
    y = rng.normal(size=x.size)
    res = spearman(x, y)
    if not math.isnan(res.rho):
        assert -1.0 <= res.rho <= 1.0
        sym = spearman(y, x)
        assert sym.rho == pytest.approx(res.rho, abs=1e-12)
    assert 0.0 <= res.pvalue <= 1.0


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        spearman(np.arange(3.0), np.arange(4.0))


def test_wilson_interval_matches_scipy():
    """Same Wilson score interval as SciPy's ``binomtest`` over a grid
    that includes 0 and n successes and single-trial campaigns."""
    for n in (1, 2, 3, 7, 20, 40, 101, 2000):
        for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            ref = scipy.stats.binomtest(k, n).proportion_ci(method="wilson")
            lo, hi = wilson_interval(k, n)
            assert abs(lo - ref.low) <= 1e-12 and abs(hi - ref.high) <= 1e-12, (k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_interval_without_tests_is_nan():
    lo, hi = wilson_interval(0, 0)
    assert math.isnan(lo) and math.isnan(hi)
