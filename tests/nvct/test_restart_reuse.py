"""The trial loop restarts each run of equal crash images once.

Equal image signatures mean bit-identical NVM images, so the trial loop
answers a trial whose image equals the last classified one from that
record instead of restarting (``campaign.restarts`` /
``campaign.restarts_reused``).  These tests pin the exact restart count,
the cases that never reuse (verified mode, a ``FAILED`` record) and the
records against a reference that restarts every image.  The
differential matrix (``test_execution_matrix.py``) holds the same
property against the copy-and-diff oracle.
"""

import functools
import multiprocessing
from dataclasses import replace

import pytest

import repro.nvct.campaign as campaign_mod
from repro import obs
from repro.apps.registry import get_factory
from repro.nvct.campaign import (
    CampaignConfig,
    PreparedShard,
    Response,
    plan_shards,
    run_campaign,
)

FACTORY = get_factory("IS")
CFG = CampaignConfig(n_tests=30, seed=2)
CONFIGS = {
    "whole-cache-loss": CFG,
    # Under torn an overlay digest repeats at non-adjacent points: 28
    # distinct images in 29 runs of equal signatures.
    "torn": CampaignConfig(n_tests=30, seed=1002, crash_model="torn"),
}


@functools.lru_cache(maxsize=None)
def recorded(name):
    (plan,), _ = plan_shards(FACTORY, CONFIGS[name])
    return PreparedShard.record(FACTORY, plan)


def restart_every_image(factory, cfg):
    """The reference records: the campaign's recording with every image
    restarted on its own, weighted as a campaign weights them."""
    (plan,), _ = plan_shards(factory, cfg)
    shard = PreparedShard.record(factory, plan)
    records = [
        campaign_mod._classify_trial(factory, snap, shard.golden_iterations, cfg)
        for snap in shard.store.snapshots(range(plan.n_snaps))
    ]
    for rec, w in zip(records, plan.weights):
        rec.weight = int(w)
    return records


@functools.lru_cache(maxsize=None)
def full_records(name):
    return restart_every_image(FACTORY, CONFIGS[name])


def signature_runs(sigs):
    return sum(1 for k, sig in enumerate(sigs) if k == 0 or sig != sigs[k - 1])


@pytest.fixture(scope="module")
def shard():
    return recorded("whole-cache-loss")


@pytest.fixture(scope="module")
def reference():
    """Taken before any test patches ``_classify``."""
    return full_records("whole-cache-loss")


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


def test_each_distinct_image_restarts_once():
    """Once per run of equal images, to be exact: under torn one image
    recurs after a different one and restarts a second time."""
    for name, cfg in CONFIGS.items():
        sigs = recorded(name).store.image_signatures()
        expected = full_records(name)
        with obs.enabled() as reg:
            result = run_campaign(FACTORY, cfg, jobs=1)
        restarts = reg.counter("campaign.restarts").value
        reused = reg.counter("campaign.restarts_reused").value
        assert restarts == signature_runs(sigs) < len(sigs), name
        assert restarts + reused == len(sigs), name
        assert result.records == expected, name
        if name == "torn":  # 29 restarts for 28 distinct images
            assert restarts == len(set(sigs)) + 1


def test_verified_campaign_restarts_every_image():
    cfg = replace(CFG, verified_mode=True)
    with obs.enabled() as reg:
        result = run_campaign(FACTORY, cfg, jobs=1)
    assert reg.counter("campaign.restarts_reused").value == 0
    assert reg.counter("campaign.restarts").value == len(result.records)


def test_pool_workers_reuse_within_their_chunks(reference, classify_calls):
    """30 trials over 2 jobs cut 4-trial chunks: a class split across
    chunks restarts once per chunk, and the records do not move."""
    result = run_campaign(FACTORY, CFG, jobs=2)
    assert result.records == reference
    assert classify_calls.value < len(reference)


def test_a_failed_record_is_never_reused(shard, reference, monkeypatch):
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
    assert result.records[first + 1] == reference[first + 1]
