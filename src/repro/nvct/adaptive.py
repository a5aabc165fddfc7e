"""Adaptive campaign sizing (the paper's statistical stopping rule).

Sec. 4.1: "for each benchmark, we run a sufficient number of crash and
recomputation tests (usually 1000-2000), such that further increasing the
number of tests does not cause big variation (less than 5%) in the
evaluation results."

:func:`run_campaign_until_stable` implements exactly that: grow the
campaign in rounds and stop when the recomputability estimate moves by
less than the tolerance between consecutive rounds (and the binomial
half-width confirms the precision).  :func:`recomputability_interval`
provides bootstrap confidence intervals for any finished campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.nvct.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # avoid a circular import (apps depend on nvct)
    from repro.apps.base import AppFactory

__all__ = [
    "StableCampaign",
    "run_campaign_until_stable",
    "recomputability_interval",
]


@dataclass
class StableCampaign:
    """A campaign grown until its headline estimate stabilized."""

    result: CampaignResult
    history: tuple[float, ...]  # recomputability after each round
    rounds: int
    stable: bool  # False when max_tests was hit before stabilizing

    @property
    def recomputability(self) -> float:
        return self.result.recomputability()


def _merged(base: CampaignResult, extra: CampaignResult) -> CampaignResult:
    """Concatenate two campaigns of the same app/plan (disjoint seeds)."""
    return CampaignResult(
        app=base.app,
        plan=base.plan,
        records=base.records + extra.records,
        run_stats=base.run_stats,
        golden_iterations=base.golden_iterations,
        crash_model=base.crash_model,
    )


def run_campaign_until_stable(
    factory: "AppFactory",
    config: CampaignConfig,
    tolerance: float = 0.05,
    min_tests: int = 100,
    max_tests: int = 2000,
    round_size: int | None = None,
    trial_timeout: float | None = None,
) -> StableCampaign:
    """Grow a campaign round by round until the recomputability estimate
    changes by less than ``tolerance`` between rounds.

    Each round draws fresh crash points (a distinct seed), so rounds are
    independent samples of the same crash distribution; the merged record
    set is the final campaign.  ``max_tests`` bounds the paper's
    1000-2000-test ceiling; ``trial_timeout`` is every round's
    :func:`~repro.nvct.campaign.run_campaign` deadline per trial.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    step = round_size or max(min_tests, config.n_tests)
    rounds = 0
    merged: CampaignResult | None = None
    history: list[float] = []
    while True:
        result = run_campaign(
            factory, replace(config, n_tests=step, seed=config.seed + rounds),
            trial_timeout=trial_timeout,
        )
        merged = result if merged is None else _merged(merged, result)
        rounds += 1
        history.append(merged.recomputability())
        if len(history) >= 2 and merged.n_tests >= min_tests:
            if abs(history[-1] - history[-2]) < tolerance:
                return StableCampaign(merged, tuple(history), rounds, True)
        if merged.n_tests >= max_tests:
            return StableCampaign(merged, tuple(history), rounds, False)


def recomputability_interval(
    result: CampaignResult,
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap percentile confidence interval for the recomputability
    (S1 rate) of a finished campaign."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    successes = result.success_vector()
    n = successes.size
    if n == 0:
        return (float("nan"), float("nan"))
    rng = derive_rng(seed, "bootstrap", result.app, n)
    draws = rng.integers(0, n, size=(n_boot, n))
    means = successes[draws].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return (float(lo), float(hi))
