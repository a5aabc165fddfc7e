"""System-efficiency model (paper Sec. 7, Eqs. 6-9).

Notation follows the paper.  The total system time is fixed (10 years in
the evaluation); the model solves for the number of checkpoints ``N`` and
reports efficiency = useful computation / total time.

Without EasyCrash (Eq. 6)::

    Total = N (T + T_chk) + M (T_vain + T_r + T_sync),  M = Total / MTBF

with Young's interval ``T = sqrt(2 T_chk MTBF)``, ``T_vain = T/2``,
``T_r = T_chk`` and ``T_sync = 0.5 T_chk``.

With EasyCrash (Eqs. 8-9), a fraction ``R`` of the ``M`` crashes restart
from NVM at cost ``T_r' + T_sync`` (T_r' is the time to reload data
objects from NVM-resident memory — seconds, not minutes) and lose no
computed work; the rest roll back to the last checkpoint.  The checkpoint
interval stretches to ``T' = sqrt(2 T_chk MTBF/(1-R))`` and the useful
computation carries EasyCrash's runtime overhead ``ts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from repro.checkpoint.multilevel import CorrelatedFailureProcess

__all__ = [
    "SystemParams",
    "efficiency_baseline",
    "efficiency_baseline_under",
    "efficiency_easycrash",
    "efficiency_easycrash_under",
    "efficiency_by_crash_model",
    "efficiency_measured_multinode",
    "efficiency_improvement",
    "recomputability_threshold",
]

YEAR = 365.0 * 24 * 3600


@dataclass(frozen=True)
class SystemParams:
    """Machine/application parameters of the Sec. 7 emulation."""

    mtbf_s: float
    t_chk_s: float
    total_time_s: float = 10 * YEAR
    sync_fraction: float = 0.5  # T_sync = fraction * T_chk (Fang et al.)
    t_r_nvm_s: float = 2.0  # EasyCrash reload from NVM (T_r')

    def __post_init__(self) -> None:
        if min(self.mtbf_s, self.t_chk_s, self.total_time_s) <= 0:
            raise ValueError("times must be positive")

    @property
    def t_sync(self) -> float:
        return self.sync_fraction * self.t_chk_s

    @property
    def t_restore(self) -> float:
        return self.t_chk_s  # paper: T_r = T_chk

    def young_interval(self, mtbf: float | None = None) -> float:
        """Young's optimum checkpoint interval, capped by the total time."""
        t = math.sqrt(2.0 * self.t_chk_s * (mtbf or self.mtbf_s))
        return min(t, self.total_time_s)


def _restart_sync(p: SystemParams, nodes: int | None) -> float:
    """Coordination charge for an NVM restart, gated on surviving peers.

    ``T_sync`` is a cross-node barrier: restarting peers re-join the
    surviving checkpointing nodes.  With no topology (``nodes=None``) the
    historical behaviour — always charge it — is kept for backward
    compatibility with Eq. 9.  With a known topology the charge applies
    only when there *are* peers to coordinate with: a single-node system
    (or one where a burst took every node) pays no barrier on restart.
    """
    if nodes is not None and nodes <= 1:
        return 0.0
    return p.t_sync


def _efficiency(
    p: SystemParams,
    interval: float | None,
    crashes: float,
    r: float = 0.0,
    ts: float = 0.0,
    nodes: int | None = None,
) -> float:
    """The one Sec. 7 algebra behind every public efficiency.

    ``crashes`` is ``M``; a fraction ``r`` of them restarts from NVM at
    ``T_r' + T_sync`` and the rest roll back at ``T/2 + T_r + T_sync``;
    ``N`` checkpoints fill what recovery leaves of the total time, and
    the useful work carries the runtime overhead ``ts``.  ``interval``
    ``None`` is Young's interval at the effective MTBF ``MTBF/(1-r)``
    (Eq. 6 at ``r = 0``).  ``nodes`` gates the restart coordination term
    (:func:`_restart_sync`).  At ``r = ts = 0`` the restart terms are
    exact zeros, so Eq. 6 comes out bit for bit.
    """
    if r >= 1.0:
        r = 1.0 - 1e-9
    if not 0.0 <= r < 1.0:
        raise ValueError("recomputability must be in [0, 1)")
    if not 0.0 <= ts < 1.0:
        raise ValueError("ts must be in [0, 1)")
    if interval is None:
        interval = p.young_interval(p.mtbf_s / (1.0 - r))
    elif interval <= 0:
        raise ValueError("interval must be positive")
    t = min(interval, p.total_time_s)
    recovery = crashes * (1.0 - r) * (t / 2.0 + p.t_restore + p.t_sync)
    recovery += crashes * r * (p.t_r_nvm_s + _restart_sync(p, nodes))
    n = (p.total_time_s - recovery) / (t + p.t_chk_s)
    useful = max(0.0, n * t) * (1.0 - ts)
    return min(1.0, useful / p.total_time_s)


def efficiency_baseline(p: SystemParams) -> float:
    """Eq. 6: efficiency of C/R without EasyCrash."""
    return _efficiency(p, None, p.total_time_s / p.mtbf_s)


def efficiency_easycrash(
    p: SystemParams, recomputability: float, ts: float, nodes: int | None = None
) -> float:
    """Eqs. 8-9: efficiency with EasyCrash at the given recomputability
    ``R`` and runtime overhead ``ts``.

    ``nodes`` (optional) gates the NVM-restart coordination term on the
    surviving-node count — see :func:`_restart_sync`."""
    return _efficiency(p, None, p.total_time_s / p.mtbf_s, recomputability, ts, nodes)


def efficiency_improvement(p: SystemParams, recomputability: float, ts: float) -> float:
    """Absolute efficiency gain of EasyCrash over plain C/R."""
    return efficiency_easycrash(p, recomputability, ts) - efficiency_baseline(p)


# -- emulated failure schedules (correlated arrivals) --------------------------
#
# Eqs. 6-9 take the crash count as its Poisson expectation M = Total/MTBF.
# The *_under variants replace that expectation with the crash count of a
# sampled CorrelatedFailureProcess schedule, so burst-correlated failures
# (which the closed form cannot express) feed the same algebra.  At
# correlation 0 and a long horizon they converge to the closed forms.


def _failures_over(p: SystemParams, process: "CorrelatedFailureProcess") -> float:
    return float(process.arrivals(p.total_time_s).size)


def efficiency_baseline_under(
    p: SystemParams, process: "CorrelatedFailureProcess"
) -> float:
    """Eq. 6 with ``M`` drawn from an emulated failure schedule."""
    return _efficiency(p, None, _failures_over(p, process))


def efficiency_easycrash_under(
    p: SystemParams,
    recomputability: float,
    ts: float,
    process: "CorrelatedFailureProcess",
    nodes: int | None = None,
) -> float:
    """Eqs. 8-9 with ``M`` drawn from an emulated failure schedule.

    The checkpoint interval still uses the *nominal* MTBF (the schedule
    is not known in advance), which is exactly why correlated bursts
    hurt: the system checkpoints as if failures were Poisson."""
    return _efficiency(p, None, _failures_over(p, process), recomputability, ts, nodes)


def efficiency_by_crash_model(
    p: SystemParams,
    recomputability_by_model: Mapping[str, float],
    ts: float,
    process: "CorrelatedFailureProcess | None" = None,
    nodes: int | None = None,
) -> dict[str, float]:
    """EasyCrash efficiency per crash model (Sec. 7 consuming the
    crash-model ablation).

    ``recomputability_by_model`` maps a crash-model spec to the
    application recomputability measured under it (e.g. via
    :func:`repro.core.model.application_recomputability_by_model`);
    with ``process`` the emulated-schedule variant is used instead of
    the closed form.  ``nodes`` gates the NVM-restart coordination term
    on the surviving-node count (:func:`_restart_sync`): previously a
    restart was always charged ``T_sync`` even when no checkpointing
    peer survived to coordinate with.
    """
    if process is None:
        return {
            model: efficiency_easycrash(p, r, ts, nodes=nodes)
            for model, r in recomputability_by_model.items()
        }
    return {
        model: efficiency_easycrash_under(p, r, ts, process, nodes=nodes)
        for model, r in recomputability_by_model.items()
    }


def efficiency_measured_multinode(
    p: SystemParams,
    mix: Mapping[str, int],
    ts: float,
    nodes: int,
    process: "CorrelatedFailureProcess | None" = None,
) -> float:
    """EasyCrash efficiency from a *measured* multi-node recovery mix.

    Where :func:`efficiency_easycrash` takes the recomputability ``R`` as
    an assumed input, this derives it from what the cluster emulator
    actually observed: ``mix`` is a recovery-decision tally as produced
    by :meth:`repro.cluster.recovery.RecoveryLog.mix` — counts keyed by
    ``"nvm_restart"`` and ``"rollback"`` — and ``R`` is the measured NVM
    restart fraction.  ``nodes`` must be the emulated topology size; it
    gates the restart coordination term (:func:`_restart_sync`).  With
    ``process`` the crash count ``M`` comes from that emulated schedule
    instead of the Poisson expectation.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    nvm = int(mix.get("nvm_restart", 0))
    rollback = int(mix.get("rollback", 0))
    if nvm < 0 or rollback < 0:
        raise ValueError("recovery mix counts must be non-negative")
    total = nvm + rollback
    measured_r = nvm / total if total else 0.0
    if process is None:
        return efficiency_easycrash(p, measured_r, ts, nodes=nodes)
    return efficiency_easycrash_under(p, measured_r, ts, process, nodes=nodes)


def efficiency_at_interval(p: SystemParams, interval_s: float) -> float:
    """Plain C/R efficiency with an arbitrary checkpoint interval (not
    necessarily Young's), for interval-optimality studies."""
    return _efficiency(p, interval_s, p.total_time_s / p.mtbf_s)


def optimal_interval(p: SystemParams, tol: float = 1e-3) -> float:
    """The exactly optimal checkpoint interval by golden-section search.

    The paper relies on El-Sayed & Schroeder's observation that Young's
    first-order interval performs nearly identically; this lets tests and
    ablations verify that claim inside the model.
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo = max(1.0, p.t_chk_s * 1e-3)
    hi = p.total_time_s / 2.0
    # Work in log-space: the efficiency curve is unimodal in log(T).
    llo, lhi = math.log(lo), math.log(hi)
    while lhi - llo > tol:
        a = lhi - phi * (lhi - llo)
        b = llo + phi * (lhi - llo)
        if efficiency_at_interval(p, math.exp(a)) < efficiency_at_interval(p, math.exp(b)):
            llo = a
        else:
            lhi = b
    return math.exp(0.5 * (llo + lhi))


def recomputability_threshold(
    p: SystemParams, ts: float, tol: float = 1e-4
) -> float:
    """τ: the minimum recomputability at which EasyCrash beats plain C/R
    (Sec. 7, "Determination of recomputability threshold"), by bisection.

    Returns 1.0 when no recomputability below 1 suffices (EasyCrash cannot
    help at this overhead), and 0.0 when it always helps.
    """
    base = efficiency_baseline(p)
    if efficiency_easycrash(p, 0.0, ts) > base:
        return 0.0
    hi_val = efficiency_easycrash(p, 1.0 - 1e-9, ts)
    if hi_val <= base:
        return 1.0
    lo, hi = 0.0, 1.0 - 1e-9
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if efficiency_easycrash(p, mid, ts) > base:
            hi = mid
        else:
            lo = mid
    return hi

