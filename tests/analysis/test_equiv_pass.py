"""Trace-equivalence pass: its classes are the restarts a campaign runs.

The headline proof (two apps): a plain serial campaign restarts exactly
once per equivalence class the pass reports — >= 10x fewer restarts than
sampled crash points — yet produces a **bit-identical** record list to a
reference that restarts every image, every per-record field exactly
equal, not approximately.
"""

import dataclasses

import pytest

from repro import obs
from repro.analysis.equiv_pass import build_crash_plan, partition_signatures
from repro.apps.base import AppFactory
from repro.errors import UsageError
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.plan import PersistencePlan
from tests.nvct.test_restart_reuse import restart_every_image


def small_factory(name):
    if name == "EP":
        from repro.apps.ep import EP

        return AppFactory(EP, batches=8, batch_size=256, seed=2020)
    from repro.apps.kmeans import KMeans

    return AppFactory(KMeans, n_points=256, n_features=4, k=4, seed=2020)


def loop_cfg(factory, n_tests, seed=3):
    app = factory.make(None)
    cands = [o.name for o in app.ws.heap.candidates()]
    return CampaignConfig(
        n_tests=n_tests, seed=seed, plan=PersistencePlan.at_loop_end(cands)
    )


# -- partitioning --------------------------------------------------------------

def test_partition_signatures_run_length_groups():
    a, b, c = (1, 0), (2, 0), (2, 1)
    assert partition_signatures([a, a, b, b, b, c]) == [0, 0, 1, 1, 1, 2]
    assert partition_signatures([]) == []
    assert partition_signatures([a]) == [0]
    # a signature recurring after a different one starts a new run
    assert partition_signatures([a, b, a]) == [0, 1, 2]


def test_partition_signatures_ids_are_dense_and_ascending():
    sigs = [(0,), (0,), (5,), (9,), (9,)]
    ids = partition_signatures(sigs)
    assert ids == [0, 0, 1, 2, 2]


# -- the proof: the engine restarts once per class, bit-identically ------------

@pytest.mark.parametrize("app_name,n_tests", [("EP", 200), ("kmeans", 400)])
def test_pruned_campaign_is_bit_identical_at_10x(app_name, n_tests):
    factory = small_factory(app_name)
    cfg = loop_cfg(factory, n_tests)
    plan = build_crash_plan(factory, cfg)
    reference = restart_every_image(factory, cfg)

    with obs.enabled() as reg:
        campaign = run_campaign(factory, cfg, jobs=1)

    # one restart per equivalence class, >= 10x fewer than sampled points
    restarts = reg.counter("campaign.restarts").value
    assert restarts == plan.n_classes
    assert plan.n_points / restarts >= 10

    # bit-identical to restarting every image: every field of every record
    assert campaign.records == reference


def test_plan_summary_reports_reduction():
    factory = small_factory("EP")
    cfg = loop_cfg(factory, 200)
    plan = build_crash_plan(factory, cfg)
    s = plan.summary()
    assert "200 sampled points" in s
    assert f"{plan.n_classes} equivalence classes" in s
    assert "x fewer than naive" in s


def test_plan_rejects_incompatible_engine_modes():
    factory = small_factory("EP")
    cfg = loop_cfg(factory, 60)
    with pytest.raises(UsageError, match="single-core, non-verified"):
        build_crash_plan(factory, dataclasses.replace(cfg, verified_mode=True))
    with pytest.raises(UsageError, match="single-core, non-verified"):
        build_crash_plan(factory, dataclasses.replace(cfg, n_cores=2))
