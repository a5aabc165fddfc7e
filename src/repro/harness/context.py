"""Shared experiment state: factories, plans, campaigns, measurements.

The paper's experiments reuse the same campaigns across tables and
figures (the EasyCrash plan feeds Fig. 6, Table 4, Figs. 7-11).  The
context caches every expensive artifact at two levels:

* **in process** — keyed by ``(app, label, content fingerprint)``, so a
  figure driver asking twice pays once, and two different plans under
  the same label can never collide;
* **on disk** (optional) — the content-addressed
  :class:`~repro.harness.cache.ArtifactCache`, enabled by pointing
  ``REPRO_CACHE_DIR`` at a directory.  A warm second session then
  recomputes nothing: every campaign, measurement, and planning report
  is loaded from disk (see :meth:`ExperimentContext.cache_stats` and the
  ``campaign_computations`` counter).

``REPRO_BENCH_SCALE`` (environment) scales the campaign sizes: ``quick``
(CI-sized), ``default``, or ``paper`` (closer to the paper's 1000-2000
tests; slow).  ``REPRO_JOBS`` sets the worker count of the parallel
campaign engine (:mod:`repro.nvct.parallel`): classification fans out
within each campaign.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.apps.base import AppFactory
from repro.apps.registry import APP_NAMES, get_factory
from repro.core.planner import EasyCrashConfig, EasyCrashPlanReport, plan_easycrash
from repro.harness.cache import (
    ArtifactCache,
    campaign_key,
    measure_key,
    plan_report_key,
)
from repro.nvct.campaign import (
    CampaignConfig,
    CampaignResult,
    RunStats,
    measure_run,
    run_campaign,
)
from repro.nvct.parallel import resolve_jobs
from repro.nvct.plan import PersistencePlan
from repro.perf.costmodel import CostModel

__all__ = ["ExperimentSettings", "ExperimentContext", "get_context"]


@dataclass(frozen=True)
class ExperimentSettings:
    """Campaign sizes and shared configuration for the harness."""

    n_tests: int = 120  # validation campaigns
    planner_tests: int = 200  # planning campaigns (steps 1-3)
    refinement_tests: int = 100
    seed: int = 2020
    ts: float = 0.03

    @staticmethod
    def from_env() -> "ExperimentSettings":
        scale = os.environ.get("REPRO_BENCH_SCALE", "default")
        if scale == "quick":
            return ExperimentSettings(n_tests=40, planner_tests=80, refinement_tests=40)
        if scale == "paper":
            return ExperimentSettings(
                n_tests=400, planner_tests=1000, refinement_tests=300
            )
        return ExperimentSettings()


class ExperimentContext:
    """Lazily computed, cached per-application experiment artifacts.

    ``cache`` overrides the disk cache (default: ``REPRO_CACHE_DIR``,
    else none); ``jobs`` overrides the parallel-engine worker count
    (default: ``REPRO_JOBS``, else serial).
    """

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        cache: ArtifactCache | None = None,
        jobs: int | None = None,
    ):
        self.settings = settings or ExperimentSettings.from_env()
        self.cost_model = CostModel()
        self.disk_cache = cache if cache is not None else ArtifactCache.from_env()
        self.jobs = resolve_jobs(jobs)
        self._plans: dict[tuple[str, str], EasyCrashPlanReport] = {}
        self._campaigns: dict[tuple[str, str, str], CampaignResult] = {}
        self._measures: dict[tuple[str, str, str], RunStats] = {}
        # Number of artifacts actually recomputed (not served by any
        # cache) — a warm-disk-cache session keeps all three at zero.
        self.campaign_computations = 0
        self.measure_computations = 0
        self.plan_computations = 0

    def cache_stats(self) -> dict[str, int]:
        """Disk-cache counters plus this session's recomputation counts."""
        out = self.disk_cache.stats() if self.disk_cache else {
            "hits": 0, "misses": 0, "errors": 0, "stores": 0
        }
        out["campaign_computations"] = self.campaign_computations
        out["measure_computations"] = self.measure_computations
        out["plan_computations"] = self.plan_computations
        return out

    # -- primitives -----------------------------------------------------------

    def factory(self, name: str) -> AppFactory:
        return get_factory(name)

    def app_names(self) -> tuple[str, ...]:
        return APP_NAMES

    def _planner_config(self) -> EasyCrashConfig:
        return EasyCrashConfig(
            n_tests=self.settings.planner_tests,
            seed=self.settings.seed,
            ts=self.settings.ts,
            refinement_tests=self.settings.refinement_tests,
        )

    def plan_report(self, name: str) -> EasyCrashPlanReport:
        """The EasyCrash planning workflow output for one application."""
        cfg = self._planner_config()
        key = (name, plan_report_key(self.factory(name), cfg))
        if key not in self._plans:
            report = self.disk_cache.get_plan_report(key[1]) if self.disk_cache else None
            if report is None:
                report = plan_easycrash(self.factory(name), cfg)
                self.plan_computations += 1
                if self.disk_cache:
                    self.disk_cache.put_plan_report(key[1], report)
            self._plans[key] = report
        return self._plans[key]

    def _campaign_config(
        self,
        plan: PersistencePlan,
        verified: bool = False,
        n_tests: int | None = None,
    ) -> CampaignConfig:
        return CampaignConfig(
            n_tests=n_tests or self.settings.n_tests,
            seed=self.settings.seed + 1,  # independent of planning seed
            plan=plan,
            verified_mode=verified,
        )

    def campaign(
        self,
        name: str,
        plan: PersistencePlan,
        label: str,
        verified: bool = False,
        n_tests: int | None = None,
    ) -> CampaignResult:
        """A crash campaign for (application, plan).

        The cache key is the campaign's *content* (plan fingerprint and
        full configuration), so equal labels with different plans are
        distinct entries; ``label`` only aids debugging/reporting.
        """
        cfg = self._campaign_config(plan, verified, n_tests)
        key = (name, label, campaign_key(self.factory(name), cfg))
        if key not in self._campaigns:
            result = self.disk_cache.get_campaign(key[2]) if self.disk_cache else None
            if result is None:
                result = run_campaign(self.factory(name), cfg, jobs=self.jobs)
                self.campaign_computations += 1
                if self.disk_cache:
                    self.disk_cache.put_campaign(key[2], result)
            self._campaigns[key] = result
        return self._campaigns[key]

    def measure(self, name: str, plan: PersistencePlan, label: str) -> RunStats:
        """Event counts of an instrumented production run under ``plan``."""
        cfg = CampaignConfig(plan=plan)
        key = (name, label, measure_key(self.factory(name), cfg))
        if key not in self._measures:
            stats = self.disk_cache.get_stats(key[2]) if self.disk_cache else None
            if stats is None:
                stats = measure_run(self.factory(name), cfg)
                self.measure_computations += 1
                if self.disk_cache:
                    self.disk_cache.put_stats(key[2], stats)
            self._measures[key] = stats
        return self._measures[key]

    # -- derived plans -----------------------------------------------------------

    def candidates(self, name: str) -> tuple[str, ...]:
        app = self.factory(name).make(None)
        return tuple(o.name for o in app.ws.heap.candidates())

    def plan_none(self) -> PersistencePlan:
        return PersistencePlan.none()

    def plan_baseline_no_iterator(self) -> PersistencePlan:
        return PersistencePlan.none(persist_iterator=False)

    def plan_easycrash(self, name: str) -> PersistencePlan:
        return self.plan_report(name).plan

    def plan_selected_at_loop(self, name: str) -> PersistencePlan:
        """Flush the selected critical objects at every iteration end
        (the "selecting data objects" stage of Fig. 6)."""
        crit = self.plan_report(name).critical_objects
        if not crit:
            return PersistencePlan.none()
        return PersistencePlan.at_loop_end(list(crit))

    def plan_all_candidates_at_loop(self, name: str) -> PersistencePlan:
        """Flush all candidate objects every iteration (the no-selection
        baseline of Fig. 5 / Table 4 / Fig. 7)."""
        return PersistencePlan.at_loop_end(list(self.candidates(name)))

    def plan_best(self, name: str) -> PersistencePlan:
        """The paper's costly "best recomputability" configuration:
        critical objects persisted at every code region and at every
        iteration end."""
        crit = self.plan_report(name).critical_objects
        if not crit:
            crit = self.candidates(name)
        return PersistencePlan.per_region(
            list(crit),
            {r: 1 for r in self.factory(name).regions},
            at_iteration_end=True,
        )

    # -- aggregates -------------------------------------------------------------

    def easycrash_recomputability(self, name: str) -> float:
        return self.campaign(name, self.plan_easycrash(name), "easycrash").recomputability()


_context: ExperimentContext | None = None


def get_context() -> ExperimentContext:
    """Process-wide shared context (one per benchmark session)."""
    global _context
    if _context is None:
        _context = ExperimentContext()
    return _context
