"""The trial loop classifies each distinct crash image once.

Equal image signatures mean bit-identical NVM images, so the trial loop
answers a trial whose image equals the last classified one from that
record instead of restarting (``campaign.restarts`` /
``campaign.restarts_reused``).  These tests pin the exact restart count,
the cases that never reuse (verified mode, a ``FAILED`` record, a crash
plan's purity tails) and the records against a loop that restarts every
image.  The differential matrix (``test_execution_matrix.py``) holds the
same property against the copy-and-diff oracle.
"""

import multiprocessing
from dataclasses import replace

import pytest

import repro.nvct.campaign as campaign_mod
from repro import obs
from repro.analysis.equiv_pass import build_crash_plan
from repro.apps.registry import get_factory
from repro.nvct.campaign import (
    CampaignConfig,
    PreparedShard,
    Response,
    plan_shards,
    run_campaign,
)
from tests.nvct.test_execution_matrix import _serve_scripted

FACTORY = get_factory("IS")
CFG = CampaignConfig(n_tests=30, seed=2)


@pytest.fixture(scope="module")
def shard():
    (plan,), _ = plan_shards(FACTORY, CFG)
    return PreparedShard.record(FACTORY, plan)


@pytest.fixture(scope="module")
def full_records(shard):
    """Every image restarted: the trial loop with reuse off."""
    return list(campaign_mod._trial_loop(
        FACTORY, shard.store, shard.golden_iterations, CFG, range(shard.plan.n_snaps), reuse=False
    ))


@pytest.fixture(scope="module")
def crash_plan():
    return build_crash_plan(FACTORY, CFG)


@pytest.fixture
def classify_calls(monkeypatch):
    """Count ``_classify`` calls, in this process and in forked pool workers."""
    calls = multiprocessing.get_context("fork").Value("i", 0)
    real = campaign_mod._classify

    def counting(factory, snap, golden_iterations, cfg):
        with calls.get_lock():
            calls.value += 1
        return real(factory, snap, golden_iterations, cfg)

    monkeypatch.setattr(campaign_mod, "_classify", counting)
    return calls


def test_each_distinct_image_restarts_once(shard, full_records):
    sigs = shard.store.image_signatures()
    with obs.enabled() as reg:
        result = run_campaign(FACTORY, CFG, jobs=1)
    restarts = reg.counter("campaign.restarts").value
    reused = reg.counter("campaign.restarts_reused").value
    assert restarts == len(set(sigs)) < len(sigs)
    assert restarts + reused == shard.plan.n_snaps
    assert result.executed_trials == shard.plan.n_snaps
    assert result.records == full_records


def test_verified_campaign_restarts_every_image():
    cfg = replace(CFG, verified_mode=True)
    with obs.enabled() as reg:
        result = run_campaign(FACTORY, cfg, jobs=1)
    assert reg.counter("campaign.restarts_reused").value == 0
    assert reg.counter("campaign.restarts").value == len(result.records)


def test_pool_workers_reuse_within_their_chunks(classify_calls, full_records):
    """30 trials over 2 jobs cut 4-trial chunks: a class split across
    chunks restarts once per chunk, and the records do not move."""
    result = run_campaign(FACTORY, CFG, jobs=2)
    assert result.records == full_records
    assert classify_calls.value < len(full_records)


def test_a_failed_record_is_never_reused(shard, full_records, monkeypatch):
    sigs = shard.store.image_signatures()
    first = next(k for k in range(len(sigs) - 1) if sigs[k] == sigs[k + 1])
    seen = []
    real = campaign_mod._classify

    def poison(factory, snap, golden_iterations, cfg):
        seen.append(snap.index)
        if snap.index == first:
            raise RuntimeError("poison trial")
        return real(factory, snap, golden_iterations, cfg)

    monkeypatch.setattr(campaign_mod, "_classify", poison)
    result = run_campaign(FACTORY, CFG, jobs=1)
    failed = [i for i, r in enumerate(result.records) if r.response is Response.FAILED]
    assert failed == [first]
    assert first + 1 in seen  # the duplicate was classified on its own
    assert result.records[first + 1] == full_records[first + 1]


@pytest.mark.parametrize("executor", ["inline", "jobs2", "scripted-worker"])
def test_crash_plan_tails_are_classified_independently(
    tmp_path, shard, crash_plan, classify_calls, executor
):
    executed = crash_plan.executed_indices()
    # a tail next to its representative: the loop would reuse it if allowed
    sigs = shard.store.image_signatures()
    assert any(sigs[a] == sigs[b] for a, b in zip(executed, executed[1:]))
    if executor == "scripted-worker":
        result = _serve_scripted(CFG, tmp_path / "j.jsonl", FACTORY, crash_plan=crash_plan)
    else:
        result = run_campaign(FACTORY, CFG, jobs=2 if executor == "jobs2" else 1, plan=crash_plan)
    assert classify_calls.value == len(executed)
    assert len(result.records) == CFG.n_tests
