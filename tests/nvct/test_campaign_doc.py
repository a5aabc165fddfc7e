"""The campaign document: ``CampaignConfig.to_doc`` / ``from_doc``, and
the content key and journal header it feeds."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import get_factory
from repro.harness.cache import campaign_key
from repro.memsim.config import HierarchyConfig
from repro.nvct.campaign import CampaignConfig
from repro.nvct.journal import campaign_header
from repro.nvct.plan import PersistencePlan

FACTORY = get_factory("EP")

HIERARCHIES = [None, HierarchyConfig.scaled_three_level(), HierarchyConfig.paper_like()]
#: two spellings of each crash model (whole-cache-loss has no parameters)
MODELS = [
    ("whole-cache-loss", "whole-cache-loss"),
    ("adr", "adr:wpq=64"),
    ("eadr", "eadr:granularity=8"),
    ("torn", "torn:granularity=8"),
]
DISTRIBUTIONS = ["uniform", "early", "late"]

configs = st.builds(
    CampaignConfig,
    n_tests=st.integers(0, 500),
    seed=st.integers(0, 2**31),
    hierarchy=st.sampled_from(HIERARCHIES),
    plan=st.one_of(
        st.just(PersistencePlan.none()),
        st.builds(PersistencePlan.at_loop_end, st.just(("x", "y")), st.integers(1, 4)),
    ),
    verified_mode=st.booleans(),
    max_iter_factor=st.sampled_from([1.5, 2.0, 3.0]),
    distribution=st.sampled_from(DISTRIBUTIONS),
    n_cores=st.integers(1, 4),
    crash_model=st.sampled_from([spelling for pair in MODELS for spelling in pair]),
    nodes=st.integers(1, 8),
    correlation=st.sampled_from([0.0, 0.3, 0.6]),
    burst_window_s=st.sampled_from([120.0, 600.0]),
    node=st.integers(0, 7),
)


def _model_index(spec: str) -> int:
    return next(i for i, pair in enumerate(MODELS) if spec in pair)


def _other(cfg: CampaignConfig, name: str):
    """A different valid value for field ``name`` of ``cfg``."""
    value = getattr(cfg, name)
    if name == "hierarchy":
        return HIERARCHIES[(HIERARCHIES.index(value) + 1) % len(HIERARCHIES)]
    if name == "plan":
        return PersistencePlan.at_loop_end(("x",), value.iteration_frequency + 1)
    if name == "crash_model":
        return MODELS[(_model_index(value) + 1) % len(MODELS)][0]
    if name == "distribution":
        return DISTRIBUTIONS[(DISTRIBUTIONS.index(value) + 1) % len(DISTRIBUTIONS)]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    raise AssertionError(f"no mutation for field {name!r}")


@settings(max_examples=60, deadline=None)
@given(configs)
def test_campaign_document_roundtrip_and_key(cfg):
    doc = cfg.to_doc()
    wire = json.loads(json.dumps(doc))  # plain JSON: no dataclass or tuple leakage
    assert wire == doc
    assert CampaignConfig.from_doc(wire).to_doc() == doc

    key = campaign_key(FACTORY, cfg)
    for f in dataclasses.fields(CampaignConfig):
        changed = dataclasses.replace(cfg, **{f.name: _other(cfg, f.name)})
        assert campaign_key(FACTORY, changed) != key, f.name

    plain, canonical = MODELS[_model_index(cfg.crash_model)]
    respelled = [dataclasses.replace(cfg, crash_model=s) for s in (plain, canonical)]
    assert {campaign_key(FACTORY, c) for c in respelled} == {key}


def test_header_carries_the_campaign_document():
    cfg = CampaignConfig(
        n_tests=5, seed=2, hierarchy=HierarchyConfig.scaled_three_level(),
        crash_model="adr", nodes=2, node=1,
    )
    header = campaign_header(FACTORY, cfg)
    assert header["config"] == cfg.to_doc()
    assert header["key"] == campaign_key(FACTORY, cfg)
    assert header["config"]["hierarchy"][0] == {
        "name": "L1", "size_bytes": 4096, "ways": 4, "block_size": 64,
    }
    assert header["config"]["crash_model"] == "adr:wpq=64"


def test_from_doc_refuses_missing_and_unknown_fields():
    doc = CampaignConfig().to_doc()
    with pytest.raises(ValueError, match="seed"):
        CampaignConfig.from_doc({k: v for k, v in doc.items() if k != "seed"})
    with pytest.raises(ValueError, match="topology"):
        CampaignConfig.from_doc({**doc, "topology": None})
