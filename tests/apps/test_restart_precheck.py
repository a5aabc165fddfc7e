"""EP's restart pre-check never claims an S4 that a full restart denies.

A dense campaign of a small EP under every crash model, in verified mode
and on two cores: each image is classified with the pre-check and again
with it switched off (a full restart, then ``verify``), and the records
must be equal, with at least 90 % of the trials pre-checked.  A
Hypothesis property then feeds the check adversarial ``q`` images and
iterators: whenever it answers ``True``, the full restart runs without
raising and fails verification.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppFactory
from repro.apps.ep import EP
from repro.nvct.campaign import CampaignConfig, PreparedShard, Response, _classify, plan_shards

FACTORY = AppFactory(EP, batches=32, batch_size=256, seed=5)
LIMIT = 32
N_TESTS = 240
CELLS = {
    **{model: {"crash_model": model} for model in ("whole-cache-loss", "adr", "eadr", "torn")},
    "verified": {"verified_mode": True},
    "cores2": {"n_cores": 2},
}


def full_restart(monkeypatch, snap, cfg):
    with monkeypatch.context() as m:
        m.setattr(EP, "restart_fails", lambda self, start_iter, limit: False)
        return _classify(FACTORY, snap, LIMIT, cfg)


def prechecked(snap, cfg) -> bool:
    app = FACTORY.make()
    state = snap.consistent_state if cfg.verified_mode else snap.nvm_state
    return app.restart_fails(app.restore(state), LIMIT)


@pytest.mark.parametrize("cell", list(CELLS))
def test_every_prechecked_trial_equals_its_full_restart(monkeypatch, cell):
    cfg = CampaignConfig(n_tests=N_TESTS, seed=3, **CELLS[cell])
    (plan,), _ = plan_shards(FACTORY, cfg)
    shard = PreparedShard.record(FACTORY, plan)
    assert shard.golden_iterations == LIMIT
    assert shard.store.n_images >= 200
    checked = 0
    for snap in shard.store.snapshots():
        fast = _classify(FACTORY, snap, LIMIT, cfg)
        if prechecked(snap, cfg):
            checked += 1
            assert fast.response is Response.S4
            assert full_restart(monkeypatch, snap, cfg) == fast, f"image {snap.index}"
    assert checked >= 0.9 * shard.store.n_images


def test_the_crash_before_the_first_batch_restarts_in_full():
    app = FACTORY.make()
    assert not app.restart_fails(0, LIMIT)  # q is all zero: this is an S1
    app.run(start_iter=0, max_iterations=LIMIT)
    assert app.verify()


def test_only_the_nominal_limit_is_prechecked():
    app = FACTORY.make()
    app.q.np[...] = 1.0  # no restart can reach the golden q from here
    assert app.restart_fails(5, LIMIT)
    assert not app.restart_fails(5, LIMIT - 1)
    assert not app.restart_fails(5, LIMIT + 1)


GOLDEN_Q = np.array([FACTORY.golden()[1][f"q{i}"] for i in range(10)])
TABLE = FACTORY.make().golden_table
EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.5, 2.0**52, -(2.0**52), 2.0**52 - 1, 2.0**53, 1e300]


@st.composite
def images(draw):
    """``(q, start_iter)``: ``q`` starts from the image that would restart
    into the golden ``q`` (an all-golden outcome) and has some elements
    replaced by edge values, arbitrary floats or integers, or nudged by one."""
    start = draw(st.integers(-3, LIMIT + 3))
    q = GOLDEN_Q - TABLE[min(max(LIMIT - start, 0), LIMIT)]
    for i in draw(st.lists(st.integers(0, 9), max_size=4)):
        q[i] = draw(
            st.sampled_from(EDGES)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.integers(-(2**60), 2**60).map(float)
            | st.sampled_from([q[i] - 1.0, q[i] + 1.0, -q[i]])
        )
    return q, start


@settings(max_examples=200, deadline=None)
@given(images())
def test_a_precheck_claim_means_the_full_restart_fails_verification(image):
    q, start = image
    app = FACTORY.make()
    app.q.np[...] = q
    if app.restart_fails(start, LIMIT):
        with np.errstate(all="ignore"):
            app.run(start_iter=start, max_iterations=LIMIT)
        assert not app.verify()
