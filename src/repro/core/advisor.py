"""Deployment advisor: when to use EasyCrash (paper Sec. 8).

The paper's operator workflow: given (1) the system MTBF, (2) the
checkpoint overhead, (3) the application's recomputability with EasyCrash
and (4) the acceptable performance loss ``ts``, compute the
recomputability threshold τ from the system model and enable EasyCrash
only when the application clears it — otherwise fall back to plain C/R
(e.g. for small-footprint or zero-tolerance applications, Sec. 8's two
unsuitable categories).

:func:`advise` runs that procedure end to end: τ from
:func:`~repro.system.efficiency.recomputability_threshold`, the planning
workflow with that τ, a validation campaign for the measured
recomputability, and the projected system efficiencies either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.planner import EasyCrashConfig, EasyCrashPlanReport, plan_easycrash
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.plan import PersistencePlan
from repro.system.efficiency import (
    SystemParams,
    efficiency_baseline,
    efficiency_easycrash,
    recomputability_threshold,
)

if TYPE_CHECKING:  # avoid a circular import (apps depend on core consumers)
    from repro.apps.base import AppFactory

__all__ = ["DeploymentScenario", "AdvisorReport", "advise"]


@dataclass(frozen=True)
class DeploymentScenario:
    """The operator-supplied inputs of the paper's Sec. 8 checklist."""

    mtbf_s: float
    t_chk_s: float
    ts: float = 0.03

    def system_params(self) -> SystemParams:
        return SystemParams(mtbf_s=self.mtbf_s, t_chk_s=self.t_chk_s)


@dataclass
class AdvisorReport:
    """The advisor's decision and its supporting numbers."""

    app: str
    scenario: DeploymentScenario
    tau: float
    plan_report: EasyCrashPlanReport
    measured_recomputability: float
    efficiency_without: float
    efficiency_with: float
    use_easycrash: bool

    @property
    def plan(self) -> PersistencePlan:
        if self.use_easycrash:
            return self.plan_report.plan
        return PersistencePlan.none()

    def summary(self) -> str:
        verdict = "USE EasyCrash" if self.use_easycrash else "use plain C/R"
        return (
            f"{self.app}: tau={self.tau:.3f}, measured R={self.measured_recomputability:.3f} "
            f"-> {verdict} (efficiency {self.efficiency_without:.3f} -> "
            f"{self.efficiency_with:.3f})"
        )


def advise(
    factory: "AppFactory",
    scenario: DeploymentScenario,
    planner_config: EasyCrashConfig | None = None,
    validation_tests: int = 150,
) -> AdvisorReport:
    """Run the Sec. 8 decision procedure for one application."""
    params = scenario.system_params()
    tau = recomputability_threshold(params, scenario.ts)

    cfg = planner_config or EasyCrashConfig()
    cfg = replace(cfg, ts=scenario.ts, tau=tau)
    report = plan_easycrash(factory, cfg)

    validation = run_campaign(
        factory,
        CampaignConfig(n_tests=validation_tests, seed=cfg.seed + 101, plan=report.plan),
    )
    # Laplace smoothing: a finite campaign cannot certify R = 1 and the
    # efficiency model divides by 1 - R.
    n = validation.n_tests
    measured = (validation.recomputability() * n + 0.5) / (n + 1)

    base_eff = efficiency_baseline(params)
    # The measured overhead is bounded by ts (the planner enforces the
    # budget); use ts itself as the conservative overhead estimate.
    ec_eff = efficiency_easycrash(params, measured, scenario.ts)
    use = report.plan.is_active and measured > tau and ec_eff > base_eff
    return AdvisorReport(
        app=factory.name,
        scenario=scenario,
        tau=tau,
        plan_report=report,
        measured_recomputability=measured,
        efficiency_without=base_eff,
        efficiency_with=ec_eff if use else base_eff,
        use_easycrash=use,
    )
