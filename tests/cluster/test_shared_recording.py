"""One shared recording serves every shard of a cluster campaign.

The property: for every shard, the view :func:`record_shards` hands out
of the recording at the union of all shards' crash points equals the
recording :meth:`PreparedShard.record` makes of that shard's points
alone — image metadata, dirty-block signatures and every image's NVM
bytes.  Where a foreign crash point would break that (a divergent
split), the shared run must be abandoned for per-shard recordings.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.apps.base import AppFactory, Application
from repro.apps.registry import get_factory
from repro.cluster import run_cluster_campaign
from repro.nvct.campaign import (
    CampaignConfig,
    PreparedShard,
    ShardPlan,
    _instrumented_run,
    _profile,
    plan_shards,
    record_shards,
)

MODELS = ("whole-cache-loss", "adr", "eadr", "torn")


def _assert_same_images(shared: PreparedShard, alone: PreparedShard) -> None:
    a, b = shared.store, alone.store
    assert a is not None and b is not None
    assert a.n_images == b.n_images == shared.plan.n_snaps
    assert a.image_signatures() == b.image_signatures()
    for sa, sb in zip(a.snapshots(), b.snapshots(copy=True)):
        assert (sa.counter, sa.iteration, sa.region, sa.rates) == (sb.counter, sb.iteration, sb.region, sb.rates)
        assert sa.nvm_state.keys() == sb.nvm_state.keys()
        for name in sa.nvm_state:
            assert np.array_equal(sa.nvm_state[name], sb.nvm_state[name]), (sa.index, name)
    assert shared.golden_iterations == alone.golden_iterations


def _record(factory, plans):
    with obs.enabled() as reg:
        shards = list(record_shards(factory, plans))
        recordings = reg.counter("campaign.recordings").value
        fallbacks = reg.counter("campaign.divergent_fallbacks").value
    return shards, recordings, fallbacks


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("app", ["EP", "IS", "kmeans", "MG"])
@pytest.mark.parametrize("seed", [1, 2])
def test_shared_recording_equals_each_shards_own(app, model, seed):
    factory = get_factory(app)
    cfg = CampaignConfig(n_tests=16, seed=seed, nodes=4, correlation=0.3, crash_model=model)
    plans, _ = plan_shards(factory, cfg, cluster=True)
    assert len(plans) > 1
    shards, recordings, fallbacks = _record(factory, plans)
    for shard, plan in zip(shards, plans):
        assert shard.plan is plan
        _assert_same_images(shard, PreparedShard.record(factory, plan))
    # One shared run, or (MG: a divergent split) the aborted run plus
    # one recording per shard.
    assert (recordings, fallbacks) in ((1, 0), (1 + len(plans), 1))
    if app == "MG":
        assert fallbacks == 1


@pytest.mark.parametrize("app,n_tests", [("EP", 40), ("IS", 30)])
def test_cluster_campaign_profiles_and_records_once(tmp_path, app, n_tests):
    cfg = CampaignConfig(n_tests=n_tests, seed=0, nodes=4, correlation=0.4)
    with obs.enabled() as reg:
        result = run_cluster_campaign(get_factory(app), cfg, journal=tmp_path / "j.jsonl")
        assert reg.counter("campaign.profiles").value == 1
        assert reg.counter("campaign.recordings").value == 1
    assert len(result.node_results) == 4


# -- the planted divergent split -----------------------------------------------

LLC_BLOCKS = 640 * 1024 // 64  # the default scaled LLC
BIG_BLOCKS = 2 * LLC_BLOCKS


class PlantedApp(Application):
    """Each iteration overwrites one contiguous array twice the LLC's size.

    When a crash point splits iteration 1's store halfway, simulating the
    executed half evicts the dirty second half left cached by iteration
    0 — whose bytes are still iteration 0's, where the unsplit store
    would already have written iteration 1's."""

    NAME = "planted-split"
    REGIONS = ()
    DEFAULT_MAX_FACTOR = 1.0

    def __init__(self, runtime=None, nit: int = 3, **kw):
        super().__init__(runtime, nit=nit, **kw)

    def _allocate(self):
        self.big = self.ws.array("big", (BIG_BLOCKS * 8,), candidate=True)

    def _initialize(self):
        self.big.np[...] = 0.0

    def _iterate(self, it):
        self.big.write(slice(None), float(it + 1))
        return False

    def reference_outcome(self):
        return {"sum": float(self.big.np.sum())}

    def verify(self):
        return self.golden is None or self.reference_outcome() == self.golden


def test_planted_divergent_split_falls_back_to_per_shard_recordings():
    factory = AppFactory(PlantedApp)
    window = _profile(factory)
    # Each iteration: the big store, then the one-block iterator store.
    per_iteration = BIG_BLOCKS + 1
    foreign = window[0] + per_iteration + BIG_BLOCKS // 2  # halfway through iteration 1's store
    own = window[0] + 2 * per_iteration  # right after it
    cfg = CampaignConfig(n_tests=1, nodes=2)
    plans = [
        ShardPlan(replace(cfg, node=node), window, np.array([point]), np.ones(1, dtype=np.int64), None)
        for node, point in enumerate((foreign, own))
    ]
    alone = [PreparedShard.record(factory, plan) for plan in plans]

    # Unguarded, the shared run really does record a different image for
    # the own point: the planted split is divergent.
    rt, _ = _instrumented_run(factory, cfg, np.array([foreign, own]))
    assert rt._golden_recorder.divergent_splits > 0
    unguarded = rt.golden_store().select(np.array([1]))
    (snap,) = unguarded.snapshots()
    (ref,) = alone[1].store.snapshots()
    assert not np.array_equal(snap.nvm_state["big"], ref.nvm_state["big"])

    shards, recordings, fallbacks = _record(factory, plans)
    for shard, ref_shard in zip(shards, alone):
        _assert_same_images(shard, ref_shard)
    assert (recordings, fallbacks) == (3, 1)
