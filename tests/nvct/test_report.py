"""Postmortem report rendering."""

from repro.nvct.campaign import CampaignConfig, Response, run_campaign
from repro.nvct.report import (
    campaign_summary,
    object_inconsistency_table,
    region_breakdown,
)
from repro.util.stats import wilson_interval
from tests.nvct.test_campaign import factory


def campaign():
    return run_campaign(factory(), CampaignConfig(n_tests=15, seed=2))


def test_summary_mentions_recomputability():
    res = campaign()
    text = campaign_summary(res)
    assert "recomputability" in text
    assert "S1" in text and "S4" in text
    assert res.app in text


def test_summary_prints_a_wilson_interval_per_share():
    res = campaign()
    text = campaign_summary(res)
    counts, n = res.response_counts(), res.n_tests

    def line(k):
        lo, hi = wilson_interval(k, n)
        return f"{k / n:.1%} [{lo:.1%}, {hi:.1%}] 95% CI"

    assert f"recomputability (S1): {line(counts[Response.S1])}" in text
    for resp in (Response.S1, Response.S2, Response.S3, Response.S4):
        assert f"{resp.name} {resp.value}: {line(counts[resp])}" in text
    assert "FAILED" not in text


def test_region_breakdown_lists_regions():
    text = region_breakdown(campaign())
    assert "R1" in text and "R2" in text
    assert "Time share" in text


def test_object_table_lists_candidates():
    text = object_inconsistency_table(campaign())
    assert "acc" in text
    assert "Mean | failure" in text
