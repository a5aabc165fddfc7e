"""Critical data-object selection (paper Sec. 5.1).

For each candidate data object, build two vectors across a crash-test
campaign — its data-inconsistent rate at each crash, and the binary
recomputation outcome — and compute Spearman's rank correlation.  An
object is *critical* when

* the coefficient is negative (higher inconsistency ⇒ lower success), and
* the two-sided p-value is below the significance threshold (0.01 in the
  paper: "less than it statistically shows a very strong correlation").

One adaptation over the paper: an object that is *always* heavily
inconsistent (a small, cache-hot object that never gets written back
naturally — e.g. kmeans' centroids) has a near-constant rate vector, so
its correlation is undefined even though persisting it is essential.
When the campaign shows substantial failures, such degenerate-rate
objects are selected as critical too; the subsequent region-selection
campaign validates (or refutes) the choice empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nvct.campaign import CampaignResult
from repro.util.stats import SpearmanResult, spearman

__all__ = ["SelectionResult", "select_critical_objects"]


@dataclass
class SelectionResult:
    """Outcome of the data-object selection step."""

    critical: tuple[str, ...]
    correlations: dict[str, SpearmanResult]
    alpha: float


def select_critical_objects(
    campaign: CampaignResult,
    alpha: float = 0.01,
    degenerate_rate_threshold: float = 0.25,
) -> SelectionResult:
    """Select critical data objects from a baseline campaign's records."""
    success = campaign.success_vector()
    failure_rate = 1.0 - campaign.recomputability() if campaign.records else 0.0
    rates = campaign.object_rate_vectors()
    correlations: dict[str, SpearmanResult] = {}
    critical: list[str] = []
    for name, vec in sorted(rates.items()):
        res = spearman(vec, success)
        correlations[name] = res
        if res.significant(alpha) and res.rho < 0:
            critical.append(name)
        elif (
            math.isnan(res.rho)
            and failure_rate > 0.05
            and float(np.median(vec)) >= degenerate_rate_threshold
        ):
            critical.append(name)
    return SelectionResult(tuple(critical), correlations, alpha)
