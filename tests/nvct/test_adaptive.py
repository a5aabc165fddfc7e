"""Adaptive campaign sizing and bootstrap intervals."""

import numpy as np
import pytest

from repro.nvct.adaptive import (
    recomputability_interval,
    run_campaign_until_stable,
)
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.plan import PersistencePlan
from tests.nvct.test_campaign import Counterloop, factory


def test_stabilizes_and_reports_history():
    stable = run_campaign_until_stable(
        factory(),
        CampaignConfig(n_tests=30, seed=1),
        tolerance=0.08,
        min_tests=60,
        max_tests=400,
        round_size=30,
    )
    assert stable.stable
    assert stable.rounds >= 2
    assert stable.result.n_tests >= 60
    assert len(stable.history) == stable.rounds
    assert 0.0 <= stable.recomputability <= 1.0


def test_rounds_use_distinct_crash_points():
    stable = run_campaign_until_stable(
        factory(),
        CampaignConfig(n_tests=25, seed=5),
        tolerance=0.5,  # stops after two rounds
        min_tests=50,
        max_tests=100,
        round_size=25,
    )
    counters = [r.counter for r in stable.result.records]
    # Two independent 25-point rounds rarely collide completely.
    assert len(set(counters)) > 25


def test_max_tests_bounds_growth():
    stable = run_campaign_until_stable(
        factory(),
        CampaignConfig(n_tests=20, seed=2),
        tolerance=1e-9,  # unreachable
        min_tests=40,
        max_tests=80,
        round_size=20,
    )
    assert not stable.stable
    assert stable.result.n_tests >= 80


def test_tolerance_validation():
    with pytest.raises(ValueError):
        run_campaign_until_stable(factory(), CampaignConfig(), tolerance=0.0)


def test_bootstrap_interval_contains_point_estimate():
    res = run_campaign(factory(), CampaignConfig(n_tests=60, seed=3))
    lo, hi = recomputability_interval(res, confidence=0.95)
    r = res.recomputability()
    assert lo <= r <= hi
    assert 0.0 <= lo <= hi <= 1.0


def test_bootstrap_interval_narrows_with_more_tests():
    small = run_campaign(factory(), CampaignConfig(n_tests=30, seed=3))
    big_plan = PersistencePlan.none()
    stable = run_campaign_until_stable(
        factory(),
        CampaignConfig(n_tests=60, seed=3, plan=big_plan),
        tolerance=0.5,
        min_tests=120,
        max_tests=240,
        round_size=60,
    )
    lo_s, hi_s = recomputability_interval(small)
    lo_b, hi_b = recomputability_interval(stable.result)
    assert (hi_b - lo_b) <= (hi_s - lo_s) + 0.02


def test_bootstrap_is_deterministic():
    res = run_campaign(factory(), CampaignConfig(n_tests=40, seed=4))
    assert recomputability_interval(res) == recomputability_interval(res)


def test_confidence_validation():
    res = run_campaign(factory(), CampaignConfig(n_tests=10, seed=4))
    with pytest.raises(ValueError):
        recomputability_interval(res, confidence=1.5)


def test_rounds_honour_the_crash_model():
    """Regression: the round config used to be rebuilt field by field
    without ``crash_model``, so an eadr request ran whole-cache-loss."""
    from dataclasses import replace

    from repro.apps.registry import get_factory

    ep = get_factory("EP")
    cfg = CampaignConfig(n_tests=12, seed=3, crash_model="eadr")
    stable = run_campaign_until_stable(
        ep, cfg, tolerance=0.9, min_tests=12, max_tests=24, round_size=12
    )
    assert stable.result.crash_model.startswith("eadr")
    first_round = run_campaign(ep, cfg)
    assert stable.result.records[: len(first_round.records)] == first_round.records
    whole_cache_loss = run_campaign(ep, replace(cfg, crash_model="whole-cache-loss"))
    assert first_round.records != whole_cache_loss.records
