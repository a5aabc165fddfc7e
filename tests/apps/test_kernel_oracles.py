"""EP's and IS's kernels are bit-identical to their pre-speed-up oracles.

``tests/apps/kernel_oracles.py`` keeps the old kernels as subclasses of
the production apps.  Each check runs both and compares bytes: every
heap object after every iteration of a plain run, the records of
restarts from the images of a whole-cache-loss campaign (the oracle
restarts EP in full, the production app may pre-check), the image
signatures of an instrumented run, and IS's outcome digest over golden,
restarted and arbitrary stores.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


INT64 = np.iinfo(np.int64)
I32 = np.iinfo(np.int32)


def is_outcomes(app: IS) -> tuple[dict, dict]:
    """IS's digest from the row sort and from the oracle's bucket loop."""
    return IS.reference_outcome(app), LegacyIS.reference_outcome(app)


def is_app(**params) -> IS:
    app = IS(**params)
    app.setup()
    return app


def test_is_outcome_matches_the_bucket_loop_on_golden_and_restarted_stores():
    factory = AppFactory(IS)
    app = factory.make()
    app.run()
    new, old = is_outcomes(app)
    assert new == old == factory.golden()[1]
    shard = record(factory)
    for snap in shard.store.snapshots(range(shard.store.n_images)):
        app = factory.make()
        try:
            with np.errstate(all="ignore"):
                app.run(start_iter=app.restore(snap.nvm_state))
        except Exception:
            pass  # an overrun scatter still leaves a store to digest
        new, old = is_outcomes(app)
        assert new == old, f"image {snap.index}"


@pytest.mark.parametrize("keys", ["golden", "int64"])
@pytest.mark.parametrize("fills", ["empty", "full", "mixed", "over", "outside"])
def test_is_outcome_matches_the_bucket_loop_on_edge_fills(fills, keys):
    """40 buckets: the row sort runs in two full 16-row blocks and a
    partial one; ``int64`` keys do not fit the narrow sort."""
    app = is_app(n_keys=1 << 11, n_buckets=40, nit=3, seed=5)
    app.run()
    cap, n = app.bucket_cap, app.n_buckets
    if keys == "int64":
        rng = np.random.default_rng(5)
        app.store.np[...] = rng.integers(INT64.min, INT64.max, size=n * cap, endpoint=True)
    fill = {
        "empty": np.zeros(n, dtype=np.int64),
        "full": np.full(n, cap),
        "mixed": np.resize([0, cap, 1, cap - 1], n),
        # slices cross buckets
        "over": np.resize([cap + 3, 0, cap], n),
        "outside": np.resize([-2, cap + 3, 0, cap], n),
    }[fills]
    app.offsets.np[...] = np.arange(n) * cap + fill
    new, old = is_outcomes(app)
    assert new == old


KEYS = st.one_of(
    st.integers(-3, 300),
    st.sampled_from([I32.min - 1, I32.min, I32.max - 1, I32.max, INT64.min, INT64.max]),
    st.integers(INT64.min, INT64.max),
)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_is_outcome_matches_the_bucket_loop_on_arbitrary_stores(data):
    """Any int64 keys (wraparound, int32 edges, ties with the padding)
    and any fills, in ``[0, cap]`` or across bucket bounds."""
    app = is_app(n_keys=64, n_buckets=8, nit=2, seed=3)
    cap, n = app.bucket_cap, app.n_buckets
    app.store.np[...] = data.draw(st.lists(KEYS, min_size=n * cap, max_size=n * cap))
    fill = data.draw(st.lists(st.integers(-2, cap + 2) | st.integers(0, cap), min_size=n, max_size=n))
    app.offsets.np[...] = np.arange(n) * cap + np.array(fill)
    new, old = is_outcomes(app)
    assert new == old
