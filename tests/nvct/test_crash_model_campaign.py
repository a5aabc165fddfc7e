"""Campaign-level crash-model semantics: agreement with the legacy oracle,
content keys, monotonicity and journal resume per model."""

import json

import pytest

from repro.apps.registry import get_factory
from repro.errors import UsageError
from repro.harness.cache import campaign_key
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.journal import campaign_header
from repro.nvct.serialize import campaign_from_dict, campaign_to_dict
from tests.nvct.legacy_oracle import legacy_campaign

FACTORY = get_factory("EP")
MODELS = ["whole-cache-loss", "adr", "eadr", "torn"]


def _cfg(model="whole-cache-loss", **kw):
    kw.setdefault("n_tests", 12)
    kw.setdefault("seed", 3)
    return CampaignConfig(crash_model=model, **kw)


@pytest.mark.parametrize("model", MODELS)
def test_golden_matches_legacy_per_model(model):
    """The golden-pass overlay machinery and the copy-and-diff oracle
    must produce bit-identical reports under every crash model."""
    golden = run_campaign(FACTORY, _cfg(model))
    legacy = legacy_campaign(FACTORY, _cfg(model))
    assert golden.records == legacy.records
    assert golden.crash_model == legacy.crash_model


@pytest.mark.parametrize("model", MODELS)
def test_pooled_golden_matches_legacy_per_model(model):
    """The same agreement through the ``jobs=2`` pool (workers replay the
    overlaid images from the store they hold) on a second application."""
    factory = get_factory("kmeans")
    pooled = run_campaign(factory, _cfg(model, n_tests=10), jobs=2)
    assert pooled.records == legacy_campaign(factory, _cfg(model, n_tests=10)).records


def test_default_is_whole_cache_loss_bit_identical():
    default = run_campaign(FACTORY, CampaignConfig(n_tests=12, seed=3))
    explicit = run_campaign(FACTORY, _cfg("whole-cache-loss"))
    assert default.records == explicit.records
    assert default.crash_model == explicit.crash_model == "whole-cache-loss"


def test_inconsistent_rate_monotone_per_record():
    """The structural guarantee: eADR <= ADR <= whole-cache-loss, exactly,
    per crash point and per object (survivor sets are nested)."""
    results = {m: run_campaign(FACTORY, _cfg(m)) for m in MODELS}
    for eadr_rec, adr_rec, wcl_rec in zip(
        results["eadr"].records, results["adr"].records,
        results["whole-cache-loss"].records,
    ):
        assert eadr_rec.counter == adr_rec.counter == wcl_rec.counter
        for name, wcl_rate in wcl_rec.rates.items():
            assert eadr_rec.rates[name] <= adr_rec.rates[name] <= wcl_rate


@pytest.mark.parametrize("model", ["adr", "eadr", "torn"])
def test_campaign_deterministic_per_model(model):
    a = run_campaign(FACTORY, _cfg(model))
    b = run_campaign(FACTORY, _cfg(model))
    assert a.records == b.records


# -- content keys --------------------------------------------------------------


def test_campaign_key_stable_at_default():
    """The default model is spelled out in the campaign document like any
    other, and leaving it implicit gives the same document and key."""
    header = campaign_header(FACTORY, CampaignConfig(n_tests=12, seed=3))
    assert header["config"]["crash_model"] == "whole-cache-loss"
    assert header["config"] == campaign_header(FACTORY, _cfg("whole-cache-loss"))["config"]
    assert campaign_key(FACTORY, CampaignConfig(n_tests=12, seed=3)) == campaign_key(
        FACTORY, _cfg("whole-cache-loss")
    )


def test_campaign_key_changes_iff_model_changes():
    base = campaign_key(FACTORY, _cfg())
    adr = campaign_key(FACTORY, _cfg("adr"))
    assert adr != base
    assert adr == campaign_key(FACTORY, _cfg("adr:wpq=64"))  # canonical spelling
    assert adr != campaign_key(FACTORY, _cfg("adr:wpq=32"))
    assert len({base, adr, campaign_key(FACTORY, _cfg("eadr")),
                campaign_key(FACTORY, _cfg("torn"))}) == 4


# -- serialization and journals ------------------------------------------------


def test_serialize_roundtrip_with_model():
    result = run_campaign(FACTORY, _cfg("adr"))
    doc = json.loads(json.dumps(campaign_to_dict(result)))
    assert doc["crash_model"] == "adr:wpq=64"
    back = campaign_from_dict(doc)
    assert back.crash_model == result.crash_model
    assert back.records == result.records


def test_serialize_omits_model_at_default():
    result = run_campaign(FACTORY, CampaignConfig(n_tests=12, seed=3))
    doc = campaign_to_dict(result)
    assert "crash_model" not in doc
    assert campaign_from_dict(doc).crash_model == "whole-cache-loss"


def test_journal_header_carries_the_canonical_model():
    assert campaign_header(FACTORY, _cfg())["config"]["crash_model"] == "whole-cache-loss"
    assert campaign_header(FACTORY, _cfg("adr"))["config"]["crash_model"] == "adr:wpq=64"
    assert "crash_model" not in campaign_header(FACTORY, _cfg("adr"))  # only inside config


def test_journal_resume_under_adr(tmp_path):
    path = tmp_path / "adr.jsonl"
    baseline = run_campaign(FACTORY, _cfg("adr"), jobs=1)
    run_campaign(FACTORY, _cfg("adr"), jobs=1, journal=path)
    resumed = run_campaign(FACTORY, _cfg("adr"), jobs=1, journal=path)
    assert resumed.records == baseline.records


# -- gating --------------------------------------------------------------------


def test_non_default_model_rejects_verified_mode():
    with pytest.raises(UsageError, match="crash model"):
        run_campaign(FACTORY, _cfg("adr", verified_mode=True))


def test_non_default_model_rejects_multicore():
    with pytest.raises(UsageError, match="crash model"):
        run_campaign(FACTORY, _cfg("eadr", n_cores=2))
