"""System-efficiency model (Sec. 7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.efficiency import (
    SystemParams,
    efficiency_baseline,
    efficiency_easycrash,
    efficiency_improvement,
    recomputability_threshold,
)
from repro.system.mtbf import HOUR, mtbf_for_nodes


def params(t_chk=3200.0, mtbf=12 * HOUR):
    return SystemParams(mtbf_s=mtbf, t_chk_s=t_chk)


def test_mtbf_scaling():
    assert mtbf_for_nodes(100_000) == pytest.approx(12 * HOUR)
    assert mtbf_for_nodes(200_000) == pytest.approx(6 * HOUR)
    assert mtbf_for_nodes(400_000) == pytest.approx(3 * HOUR)
    with pytest.raises(ValueError):
        mtbf_for_nodes(0)


def test_efficiency_in_unit_interval():
    for t_chk in (32, 320, 3200):
        e = efficiency_baseline(params(t_chk))
        assert 0.0 <= e <= 1.0


def test_baseline_decreases_with_checkpoint_cost():
    e32 = efficiency_baseline(params(32))
    e320 = efficiency_baseline(params(320))
    e3200 = efficiency_baseline(params(3200))
    assert e32 > e320 > e3200


def test_baseline_decreases_with_failure_rate():
    e12 = efficiency_baseline(params(mtbf=12 * HOUR))
    e3 = efficiency_baseline(params(mtbf=3 * HOUR))
    assert e12 > e3


def test_easycrash_beats_baseline_at_high_recomputability():
    p = params(3200)
    assert efficiency_easycrash(p, 0.82, 0.015) > efficiency_baseline(p)


def test_gain_grows_with_checkpoint_cost():
    # Paper Fig. 10: 2% at T_chk=32 s, 15% at 3200 s (average R=0.82).
    gains = [efficiency_improvement(params(t), 0.82, 0.015) for t in (32, 320, 3200)]
    assert gains[0] < gains[1] < gains[2]
    assert 0.0 < gains[0] < 0.05
    assert 0.1 < gains[2] < 0.3


def test_gain_grows_with_machine_scale():
    # Paper Fig. 11: EasyCrash helps more as the system scales.
    gains = [
        efficiency_improvement(
            SystemParams(mtbf_s=mtbf_for_nodes(n), t_chk_s=3200), 0.82, 0.015
        )
        for n in (100_000, 200_000, 400_000)
    ]
    assert gains[0] < gains[1] < gains[2]


def test_easycrash_monotone_in_recomputability():
    p = params(3200)
    vals = [efficiency_easycrash(p, r, 0.015) for r in (0.0, 0.3, 0.6, 0.9)]
    assert vals == sorted(vals)


def test_overhead_ts_reduces_efficiency():
    p = params(3200)
    assert efficiency_easycrash(p, 0.8, 0.0) > efficiency_easycrash(p, 0.8, 0.05)


def test_tau_definition():
    p = params(3200)
    tau = recomputability_threshold(p, ts=0.015)
    assert 0.0 < tau < 1.0
    eps = 0.02
    assert efficiency_easycrash(p, min(tau + eps, 0.999), 0.015) > efficiency_baseline(p)
    if tau > eps:
        assert efficiency_easycrash(p, tau - eps, 0.015) <= efficiency_baseline(p) + 1e-6


def test_tau_decreases_with_checkpoint_cost():
    # Cheap checkpoints leave little room for EasyCrash: τ is higher.
    taus = [recomputability_threshold(params(t), 0.015) for t in (32, 320, 3200)]
    assert taus[0] > taus[1] > taus[2]


def test_invalid_inputs():
    with pytest.raises(ValueError):
        SystemParams(mtbf_s=-1.0, t_chk_s=32.0)
    with pytest.raises(ValueError):
        efficiency_easycrash(params(), -0.1, 0.01)
    with pytest.raises(ValueError):
        efficiency_easycrash(params(), 0.5, 1.5)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=60.0, max_value=1e6),
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=0.0, max_value=0.2),
)
def test_property_efficiency_bounds(mtbf, t_chk, r, ts):
    p = SystemParams(mtbf_s=mtbf, t_chk_s=t_chk)
    assert 0.0 <= efficiency_baseline(p) <= 1.0
    assert 0.0 <= efficiency_easycrash(p, r, ts) <= 1.0


def test_young_interval_near_optimal():
    """El-Sayed & Schroeder (cited by the paper): Young's first-order
    interval performs almost identically to the true optimum."""
    from repro.system.efficiency import efficiency_at_interval, optimal_interval

    for t_chk in (32.0, 320.0, 3200.0):
        p = params(t_chk)
        t_young = p.young_interval()
        t_opt = optimal_interval(p)
        e_young = efficiency_at_interval(p, t_young)
        e_opt = efficiency_at_interval(p, t_opt)
        assert e_opt >= e_young - 1e-9
        assert e_opt - e_young < 0.02  # within 2% efficiency


def test_efficiency_at_interval_validates():
    from repro.system.efficiency import efficiency_at_interval

    with pytest.raises(ValueError):
        efficiency_at_interval(params(), -5.0)


def test_efficiency_at_young_matches_baseline():
    from repro.system.efficiency import (
        efficiency_at_interval,
        efficiency_baseline,
        efficiency_easycrash,
    )

    p = params(320.0)
    # Exact: every public efficiency is the same algebra, and at R = ts = 0
    # the EasyCrash restart terms are exact zeros.
    assert efficiency_at_interval(p, p.young_interval()) == efficiency_baseline(p)
    assert efficiency_easycrash(p, 0.0, 0.0) == efficiency_baseline(p)


# -- emulated failure schedules (correlated arrivals) --------------------------


def test_under_converges_to_closed_form_at_zero_correlation():
    from repro.checkpoint.multilevel import CorrelatedFailureProcess
    from repro.system.efficiency import (
        efficiency_baseline_under,
        efficiency_easycrash_under,
    )

    p = params(t_chk=320.0)
    # Long horizon: the sampled count concentrates on the expectation.
    process = CorrelatedFailureProcess(mtbf_s=p.mtbf_s, seed=11)
    assert efficiency_baseline_under(p, process) == pytest.approx(
        efficiency_baseline(p), abs=0.01
    )
    assert efficiency_easycrash_under(p, 0.8, 0.05, process) == pytest.approx(
        efficiency_easycrash(p, 0.8, 0.05), abs=0.01
    )


def test_correlated_bursts_reduce_efficiency():
    from repro.checkpoint.multilevel import CorrelatedFailureProcess
    from repro.system.efficiency import (
        efficiency_baseline_under,
        efficiency_easycrash_under,
    )

    p = params(t_chk=3200.0, mtbf=3 * HOUR)
    calm = CorrelatedFailureProcess(mtbf_s=p.mtbf_s, seed=4)
    bursty = CorrelatedFailureProcess(mtbf_s=p.mtbf_s, correlation=0.5, seed=4)
    assert efficiency_baseline_under(p, bursty) < efficiency_baseline_under(p, calm)
    assert efficiency_easycrash_under(p, 0.8, 0.05, bursty) < efficiency_easycrash_under(
        p, 0.8, 0.05, calm
    )


def test_under_validates_inputs():
    from repro.checkpoint.multilevel import CorrelatedFailureProcess
    from repro.system.efficiency import efficiency_easycrash_under

    p = params()
    process = CorrelatedFailureProcess(mtbf_s=p.mtbf_s, seed=0)
    with pytest.raises(ValueError):
        efficiency_easycrash_under(p, -0.1, 0.05, process)
    with pytest.raises(ValueError):
        efficiency_easycrash_under(p, 0.8, 1.5, process)


def test_efficiency_by_crash_model():
    from repro.checkpoint.multilevel import CorrelatedFailureProcess
    from repro.system.efficiency import efficiency_by_crash_model

    p = params(t_chk=320.0)
    by_model = {"whole-cache-loss": 0.5, "adr:wpq=64": 0.7, "eadr:granularity=8": 0.95}
    eff = efficiency_by_crash_model(p, by_model, ts=0.05)
    assert set(eff) == set(by_model)
    # More survives => higher recomputability => higher efficiency.
    assert eff["whole-cache-loss"] <= eff["adr:wpq=64"] <= eff["eadr:granularity=8"]
    for model, r in by_model.items():
        assert eff[model] == pytest.approx(efficiency_easycrash(p, r, 0.05))
    # Under an emulated schedule the dispatch switches to the *_under form.
    process = CorrelatedFailureProcess(mtbf_s=p.mtbf_s, correlation=0.4, seed=2)
    under = efficiency_by_crash_model(p, by_model, ts=0.05, process=process)
    assert under["eadr:granularity=8"] >= under["whole-cache-loss"]
    assert under["whole-cache-loss"] < eff["whole-cache-loss"]


# -- surviving-node gating of the restart coordination term --------------------


def test_restart_sync_gated_on_surviving_nodes():
    """Regression (PR 9): an NVM restart used to be charged ``T_sync``
    even on a single-node system with no checkpointing peer left to
    coordinate with.  With ``nodes=1`` the term drops; with peers (or
    without a topology, the historical behaviour) it stays."""
    p = params(t_chk=320.0)
    legacy = efficiency_easycrash(p, 0.8, 0.05)
    single = efficiency_easycrash(p, 0.8, 0.05, nodes=1)
    multi = efficiency_easycrash(p, 0.8, 0.05, nodes=4)
    assert multi == legacy  # peers exist: the barrier is still charged
    assert single > legacy  # no peers: the barrier drops, efficiency rises
    # Pinned N=1 value so the gated formula cannot drift silently.
    assert single == pytest.approx(0.8975692381705862, abs=1e-12)
    assert legacy == pytest.approx(0.8948290031077623, abs=1e-12)
    # The gate only ever touches the restart term: with no NVM restarts
    # (R=0) the three variants agree exactly.
    assert efficiency_easycrash(p, 0.0, 0.05, nodes=1) == efficiency_easycrash(
        p, 0.0, 0.05
    )


def test_efficiency_measured_multinode_from_mix():
    from repro.checkpoint.multilevel import CorrelatedFailureProcess
    from repro.system.efficiency import efficiency_measured_multinode

    p = params(t_chk=320.0)
    mix = {"nvm_restart": 6, "rollback": 2}  # measured R = 0.75
    eff = efficiency_measured_multinode(p, mix, 0.05, 4)
    assert eff == pytest.approx(efficiency_easycrash(p, 0.75, 0.05, nodes=4))
    # All-rollback and empty mixes degenerate to R = 0.
    zero = efficiency_measured_multinode(p, {"rollback": 5}, 0.05, 4)
    assert zero == pytest.approx(efficiency_easycrash(p, 0.0, 0.05, nodes=4))
    assert efficiency_measured_multinode(p, {}, 0.05, 4) == zero
    # Emulated schedules dispatch to the *_under variant.
    process = CorrelatedFailureProcess(mtbf_s=p.mtbf_s, correlation=0.4, seed=2)
    under = efficiency_measured_multinode(p, mix, 0.05, 4, process=process)
    assert under < eff
    with pytest.raises(ValueError):
        efficiency_measured_multinode(p, mix, 0.05, 0)
    with pytest.raises(ValueError):
        efficiency_measured_multinode(p, {"nvm_restart": -1}, 0.05, 2)
