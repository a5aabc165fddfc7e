"""EP's and IS's kernels are bit-identical to their pre-speed-up oracles.

``tests/apps/kernel_oracles.py`` keeps the old kernels as subclasses of
the production apps.  Each check runs both and compares bytes: every
heap object after every iteration of a plain run, the records of
restarts from the images of a whole-cache-loss campaign, and the image
signatures of an instrumented run.
"""

import numpy as np
import pytest

import repro.nvct.campaign as campaign_mod
from repro.apps.base import AppFactory
from repro.apps.ep import EP
from repro.apps.is_ import IS
from repro.nvct.campaign import CampaignConfig, PreparedShard, Response, plan_shards
from tests.apps.kernel_oracles import BalancedIS, BalancedLegacyIS, LegacyEP, LegacyIS

# (new, oracle, params); an IS case names the dtype its R4 sort runs in.
PLAIN_CASES = {
    "EP-default": (EP, LegacyEP, {}),
    "EP-small": (EP, LegacyEP, {"batches": 16, "batch_size": 512, "seed": 7}),
    "IS-default-uint16": (IS, LegacyIS, {}),
    "IS-small-uint8": (IS, LegacyIS, {"n_keys": 1 << 12, "n_buckets": 64, "nit": 5, "seed": 7}),
    # 65,537 buckets do not fit 16 bits: the uint32 (timsort) fallback.
    "IS-wide-uint32": (
        BalancedIS,
        BalancedLegacyIS,
        {"n_keys": 2 * 65537, "n_buckets": 65537, "nit": 2, "seed": 7},
    ),
}
SORT_DTYPES = {"IS-default-uint16": np.uint16, "IS-small-uint8": np.uint8, "IS-wide-uint32": np.uint32}

CAMPAIGN_CASES = {"EP": (EP, LegacyEP), "IS": (IS, LegacyIS)}
CFG = CampaignConfig(n_tests=24, seed=11)


def heap_bytes(app) -> dict:
    """Every heap object's bytes, candidates and scratch alike."""
    return {name: bytes(obj.data_bytes) for name, obj in app.ws.heap.objects.items()}


@pytest.mark.parametrize("case", list(PLAIN_CASES))
def test_plain_run_matches_oracle_after_every_iteration(case):
    new_cls, old_cls, params = PLAIN_CASES[case]
    new, old = new_cls(**params), old_cls(**params)
    new.setup()
    old.setup()
    if case in SORT_DTYPES:
        assert new._bucket_dtype == SORT_DTYPES[case]
    assert heap_bytes(new) == heap_bytes(old)
    for it in range(new.nominal_iterations()):
        new.run(start_iter=it, max_iterations=it + 1)
        old.run(start_iter=it, max_iterations=it + 1)
        assert heap_bytes(new) == heap_bytes(old), f"{case}: iteration {it}"
        if isinstance(new, EP):
            assert new._lcg_state == old._lcg_state
    assert new.reference_outcome() == old.reference_outcome()


def record(factory: AppFactory) -> PreparedShard:
    (plan,), _ = plan_shards(factory, CFG)
    return PreparedShard.record(factory, plan)


@pytest.mark.parametrize("app", list(CAMPAIGN_CASES))
def test_instrumented_run_image_signatures_match_oracle(app):
    new_cls, old_cls = CAMPAIGN_CASES[app]
    new, old = record(AppFactory(new_cls)), record(AppFactory(old_cls))
    assert new.store.n_images == old.store.n_images >= 20
    assert new.store.image_signatures() == old.store.image_signatures()
    assert new.run_stats == old.run_stats


@pytest.mark.parametrize("app", list(CAMPAIGN_CASES))
def test_restarts_match_oracle_on_every_campaign_image(app):
    new_cls, old_cls = CAMPAIGN_CASES[app]
    new_factory, old_factory = AppFactory(new_cls), AppFactory(old_cls)
    shard = record(new_factory)
    n = shard.store.n_images
    assert n >= 20
    records = {"new": [], "old": []}
    # A borrowed view is valid until the next image: restart both from it.
    for snap in shard.store.snapshots(range(n)):
        for key, factory in (("new", new_factory), ("old", old_factory)):
            records[key].append(
                campaign_mod._classify_trial(factory, snap, shard.golden_iterations, CFG)
            )
    assert records["new"] == records["old"]
    assert all(r.response is not Response.FAILED for r in records["new"])
