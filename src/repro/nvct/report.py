"""Plain-text postmortem reports for crash campaigns.

NVCT's analysis side: summarize a campaign's response mix, per-region
breakdown, and per-object inconsistency statistics the way the paper's
Sec. 4 characterization tables do.
"""

from __future__ import annotations

import numpy as np

from repro.nvct.campaign import CampaignResult, Response
from repro.util.stats import wilson_interval
from repro.util.tables import render_table

__all__ = ["proportion", "campaign_summary", "region_breakdown", "object_inconsistency_table"]


def proportion(successes: int, n: int, spec: str = ".1%") -> str:
    """``successes / n`` and its Wilson 95 % interval, both in ``spec``."""
    lo, hi = wilson_interval(successes, n)
    p = successes / n if n else float("nan")
    return f"{p:{spec}} [{lo:{spec}}, {hi:{spec}}] 95% CI"


def campaign_summary(result: CampaignResult) -> str:
    """One-paragraph summary: recomputability and response fractions,
    each with its Wilson 95 % interval."""
    counts, n = result.response_counts(), result.n_tests
    lines = [
        f"Campaign: {result.app} ({n} crash tests, "
        f"plan active: {result.plan.is_active})",
        f"  recomputability (S1): {proportion(counts[Response.S1], n)}",
    ]
    for resp in Response:
        if resp is Response.FAILED and counts[resp] == 0:
            continue  # harness quarantine: only worth a line when nonzero
        lines.append(f"  {resp.name} {resp.value}: {proportion(counts[resp], n)}")
    extra = result.mean_extra_iterations()
    if not np.isnan(extra):
        lines.append(f"  mean extra iterations among S2: {extra:.1f}")
    return "\n".join(lines)


def region_breakdown(result: CampaignResult) -> str:
    """Per-region table: time share, crash count, recomputability."""
    shares = result.region_time_shares()
    per_region = result.per_region_recomputability()
    counts: dict[str, int] = {}
    for rec in result.records:
        counts[rec.region] = counts.get(rec.region, 0) + 1
    rows = []
    for region in sorted(set(shares) | set(per_region)):
        if region.startswith("__") and shares.get(region, 0.0) == 0.0:
            continue
        rows.append(
            [
                region,
                shares.get(region, 0.0),
                counts.get(region, 0),
                per_region.get(region, float("nan")),
            ]
        )
    return render_table(
        ["Region", "Time share (a_k)", "Crashes", "Recomputability (c_k)"],
        rows,
        title=f"{result.app}: per-region breakdown",
    )


def object_inconsistency_table(result: CampaignResult) -> str:
    """Per-object inconsistent-rate statistics across the campaign."""
    rows = []
    success = result.success_vector().astype(bool)
    for name, rates in sorted(result.object_rate_vectors().items()):
        ok = rates[success] if success.any() else np.array([np.nan])
        bad = rates[~success] if (~success).any() else np.array([np.nan])
        rows.append(
            [name, float(np.mean(rates)), float(np.median(rates)),
             float(np.mean(ok)), float(np.mean(bad))]
        )
    return render_table(
        ["Object", "Mean rate", "Median rate", "Mean | success", "Mean | failure"],
        rows,
        title=f"{result.app}: data inconsistent rates",
    )
