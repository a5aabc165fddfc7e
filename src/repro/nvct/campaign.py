"""Crash-test campaigns: sampling, snapshotting, restart, classification.

A campaign reproduces the paper's methodology (Sec. 4.1): many tests, each
stopping the application after a uniformly random access (within the main
computation loop), restarting it from the data objects remaining in NVM,
and classifying the outcome:

* **S1** — successful recomputation, no extra iterations (the paper's
  definition of *recomputability*);
* **S2** — successful recomputation, but extra iterations were needed;
* **S3** — interruption (the restarted run raises, e.g. an out-of-bounds
  index — the analogue of a segfault);
* **S4** — verification fails even within 2x the original iterations.

One instrumented execution provides every test of a campaign: snapshots
of the NVM image are taken at all (sorted) crash points, then each
snapshot is restarted in fast plain mode.  This is statistically identical
to independent crashes under the uniform crash distribution and makes
thousand-test campaigns tractable.

The snapshots themselves come from the *golden pass*
(:mod:`repro.memsim.golden`) for every campaign — single- or multi-core,
verified or not: the single instrumented run records NVM write-back
deltas per crash-point segment, and all N crash images are reconstructed
afterwards by vectorized delta replay — ``O(heap + writeback_traffic)``
instead of an ``O(N x heap)`` copy-and-diff per point.  That
copy-and-diff path survives only as the test tree's oracle.

Every way of running a campaign — serial, ``--jobs``, ``--nodes``,
``repro serve`` + ``repro work`` — goes through one pipeline defined
here: :func:`plan_shards` → :class:`PreparedShard` → an executor →
:class:`~repro.nvct.journal.TrialLedger`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.memsim.stats import MemoryStats
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import CountingRuntime, PersistEvent, RegionProfile, Runtime, Snapshot
from repro.obs import RuntimeSpanListener, maybe_span, registry
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # avoid a circular import (apps depend on nvct)
    from collections.abc import Iterable, Iterator, Mapping, Sequence
    from pathlib import Path

    from repro.analysis.equiv_pass import CrashPlan
    from repro.apps.base import AppFactory
    from repro.cluster.emulator import Burst
    from repro.harness.resilience import RetryPolicy
    from repro.memsim.golden import GoldenStore

__all__ = [
    "Response",
    "CrashTestRecord",
    "CampaignConfig",
    "CampaignResult",
    "campaign_points",
    "ShardPlan",
    "plan_shards",
    "PreparedShard",
    "run_shard",
    "run_campaign",
    "measure_run",
]


class Response(enum.Enum):
    """The paper's four post-crash application responses (Fig. 3), plus
    ``FAILED`` for trials the *harness* could not complete (quarantined
    by the resilience layer: a poison trial, a trial-deadline timeout)."""

    S1 = "success"
    S2 = "success_extra_iterations"
    S3 = "interruption"
    S4 = "verification_fails"
    FAILED = "harness_failure"


@dataclass
class CrashTestRecord:
    """Outcome of one crash test.

    ``error`` is empty except for quarantined (``FAILED``) trials, where
    it carries the harness exception that poisoned the trial.  ``weight``
    is the number of sampled crash points this record stands for: crash
    points are deduplicated before the trial fan-out (re-measuring the
    same point re-derives the identical deterministic record), so a
    collapsed duplicate becomes weight on the single trial instead of a
    burned re-execution.  Uniform sampling is without replacement and
    always yields weight 1; skewed (beta) distributions may collapse.
    """

    counter: int
    iteration: int
    region: str
    rates: dict[str, float]
    response: Response
    extra_iterations: int = 0
    weight: int = 1
    error: str = ""


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign parameters."""

    n_tests: int = 200
    seed: int = 0
    hierarchy: HierarchyConfig | None = None
    plan: PersistencePlan = field(default_factory=PersistencePlan.none)
    verified_mode: bool = False  # restart from consistent copies (Fig. 6 "VFY")
    max_iter_factor: float = 2.0  # iteration allowance before declaring S4
    # Crash-time distribution over the main-loop window: "uniform" (the
    # paper's discrete uniform), or Beta-skewed toward the "early"/"late"
    # part of the execution (ablation).
    distribution: str = "uniform"
    # Simulated cores: 1 uses the standard hierarchy; >1 uses the MESI-lite
    # multi-core model (applications may shard work with on_core()).
    n_cores: int = 1
    # Crash model (repro.memsim.crashmodel spec string): what survives a
    # failure besides the NVM image.  The default is the paper's
    # whole-cache-loss; "adr", "eadr" and "torn" model residual-energy
    # persistence domains and torn multi-word stores.
    crash_model: str = "whole-cache-loss"
    # Cluster topology (repro.cluster): number of emulated nodes the
    # campaign shards across, the burst correlation of the failure
    # process, and the burst window grouping correlated arrivals.  A
    # topology other than the single uncorrelated node must run through
    # repro.cluster.run_cluster_campaign, which fans out one shard
    # campaign per node.
    nodes: int = 1
    correlation: float = 0.0
    burst_window_s: float = 600.0
    # Which shard this config executes.  Set by the shard cut
    # (plan_shards(cluster=True)); node 0 samples crash points with the
    # single-node key, so a one-node cluster is record-for-record
    # identical to a plain campaign.
    node: int = 0

    @property
    def clustered(self) -> bool:
        """A topology other than the single uncorrelated node."""
        return self.nodes > 1 or self.correlation > 0.0

    def to_doc(self) -> dict:
        """The campaign document: every field, as plain JSON.

        The one serialisation of a config — content keys hash it, journal
        headers carry it, and the service ships it to workers.  The plan
        goes in as its file-format dict, the hierarchy as its list of
        levels, and the crash model in its canonical spelling (``"adr"``
        and ``"adr:wpq=64"`` give one document).
        """
        from repro.memsim.crashmodel import get_model
        from repro.nvct.serialize import plan_to_dict

        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["hierarchy"] = (
            None if self.hierarchy is None else [asdict(lv) for lv in self.hierarchy.levels]
        )
        doc["plan"] = plan_to_dict(self.plan)
        doc["crash_model"] = get_model(self.crash_model).spec
        return doc

    @classmethod
    def from_doc(cls, doc: "Mapping") -> "CampaignConfig":
        """Rebuild a config from :meth:`to_doc`'s document.

        Raises ``ValueError`` unless ``doc`` names exactly the config's
        fields, and ``KeyError``/``TypeError``/``ValueError`` on a
        malformed value.
        """
        from repro.nvct.serialize import plan_from_dict

        names = {f.name for f in fields(cls)}
        if set(doc) != names:
            raise ValueError(f"campaign document fields differ: {sorted(set(doc) ^ names)}")
        levels = doc["hierarchy"]
        return cls(**{
            **doc,
            "hierarchy": None if levels is None else HierarchyConfig(
                tuple(CacheLevelConfig(**lv) for lv in levels)
            ),
            "plan": plan_from_dict(doc["plan"]),
        })


@dataclass
class RunStats:
    """Event counts of the instrumented (no-crash-perturbation) execution,
    consumed by the performance model."""

    memory: MemoryStats
    region_profile: dict[str, RegionProfile]
    persist_events: list[PersistEvent]
    total_accesses: int
    window_begin: int
    iterations: int

    @property
    def persist_op_count(self) -> int:
        return len(self.persist_events)


@dataclass
class CampaignResult:
    """All records of a campaign plus the instrumented run's statistics."""

    app: str
    plan: PersistencePlan
    records: list[CrashTestRecord]
    run_stats: RunStats
    golden_iterations: int
    #: restarts actually executed.  Equals ``len(records)`` for a naive
    #: campaign; under a pruned crash plan (``run_campaign(plan=...)``)
    #: only class representatives and purity tails run, so this is the
    #: denominator of the pruning factor.  ``None`` when unknown (e.g. a
    #: campaign loaded from disk — the field is an execution statistic,
    #: not part of the result's content).
    executed_trials: int | None = None
    #: canonical crash-model spec the campaign ran under (default:
    #: the paper's whole-cache-loss).
    crash_model: str = "whole-cache-loss"

    # -- headline metrics ---------------------------------------------------
    #
    # All aggregates are weight-aware: a record of weight w counts as w
    # sampled crash points (duplicates collapsed before the fan-out).  The
    # integer-sum formulations below are bit-identical to the historical
    # unweighted ``np.mean`` versions whenever every weight is 1.

    @property
    def n_tests(self) -> int:
        """Number of sampled crash points (collapsed duplicates included)."""
        return int(sum(r.weight for r in self.records))

    def recomputability(self) -> float:
        """Fraction of tests with response S1 (the paper's definition)."""
        total = sum(r.weight for r in self.records)
        if not total:
            return float("nan")
        return sum(r.weight for r in self.records if r.response is Response.S1) / total

    def response_fractions(self) -> dict[Response, float]:
        out = {resp: 0.0 for resp in Response}
        total = sum(r.weight for r in self.records)
        if not total:
            return out
        for r in self.records:
            out[r.response] += r.weight
        return {k: v / total for k, v in out.items()}

    def mean_extra_iterations(self) -> float:
        """Average extra iterations among S2 tests (Table 1 restart
        overhead); NaN when no test needed extra iterations."""
        s2 = [r for r in self.records if r.response is Response.S2]
        if not s2:
            return float("nan")
        return float(sum(r.extra_iterations * r.weight for r in s2) / sum(r.weight for r in s2))

    # -- per-region views -----------------------------------------------------

    def per_region_recomputability(self) -> dict[str, float]:
        """c_k: S1 rate among tests whose crash fell in region k."""
        hits: dict[str, int] = {}
        totals: dict[str, int] = {}
        for r in self.records:
            totals[r.region] = totals.get(r.region, 0) + r.weight
            if r.response is Response.S1:
                hits[r.region] = hits.get(r.region, 0) + r.weight
        return {k: hits.get(k, 0) / v for k, v in totals.items()}

    def region_time_shares(self) -> dict[str, float]:
        """a_k: region access-count share of the main-loop window (a proxy
        for execution-time share in memory-bound HPC kernels)."""
        prof = self.run_stats.region_profile
        total = sum(p.accesses for k, p in prof.items() if not k.startswith("__init"))
        if total == 0:
            return {}
        return {
            k: p.accesses / total
            for k, p in prof.items()
            if not k.startswith("__init")
        }

    # -- selection inputs ---------------------------------------------------------

    def object_rate_vectors(self) -> dict[str, np.ndarray]:
        """Per-candidate inconsistent-rate vectors across tests."""
        if not self.records:
            return {}
        names = sorted(self.records[0].rates)
        return {
            n: np.array([r.rates.get(n, 0.0) for r in self.records]) for n in names
        }

    def success_vector(self) -> np.ndarray:
        return np.array([1.0 if r.response is Response.S1 else 0.0 for r in self.records])

    def weights_vector(self) -> np.ndarray:
        """Per-record crash-point multiplicities, aligned with
        :meth:`success_vector` / :meth:`object_rate_vectors` for weighted
        selection models."""
        return np.array([float(r.weight) for r in self.records])

    def weighted_object_rates(self) -> dict[str, float]:
        """Weight-aware mean inconsistent rate per candidate object.

        Summation is ``math.fsum`` over each record's rate repeated
        ``weight`` times: ``fsum`` returns the correctly rounded sum of
        its inputs regardless of order or grouping, so any weight
        redistribution that preserves the underlying rate multiset — in
        particular a pruned crash plan replacing w identical trials by
        one representative of weight w — yields the bit-identical double.
        """
        if not self.records:
            return {}
        import itertools

        total = sum(r.weight for r in self.records)
        names = sorted(self.records[0].rates)
        return {
            n: math.fsum(
                x
                for r in self.records
                for x in itertools.repeat(r.rates.get(n, 0.0), r.weight)
            ) / total
            for n in names
        }


def _sample_crash_points(
    window: tuple[int, int],
    n_tests: int,
    seed: int,
    key: str,
    distribution: str = "uniform",
) -> np.ndarray:
    lo, hi = window
    if hi <= lo:
        raise ValueError("empty crash window: application issued no main-loop accesses")
    rng = derive_rng(seed, "crash-points", key)
    span = hi - lo
    n = min(n_tests, span)
    if distribution == "uniform":
        points = rng.choice(span, size=n, replace=False).astype(np.int64)
    elif distribution in ("early", "late"):
        a, b = (1.0, 3.0) if distribution == "early" else (3.0, 1.0)
        raw = np.unique((rng.beta(a, b, size=4 * n) * span).astype(np.int64))
        rng.shuffle(raw)
        points = raw[:n]
        if points.size < n:
            # The beta draw collapses duplicates under np.unique and can
            # undersample; top up uniformly from the untouched remainder so
            # the campaign honors the requested test count.
            pool = np.setdiff1d(np.arange(span, dtype=np.int64), points)
            extra = rng.choice(pool.size, size=n - points.size, replace=False)
            points = np.concatenate([points, pool[extra]])
    else:
        raise ValueError(f"unknown crash distribution {distribution!r}")
    return np.sort(points + lo + 1)


def _dedupe_crash_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate crash points into ``(unique_points, weights)``.

    Classification is deterministic, so re-running a trial at the same
    counter value can only reproduce the same record; duplicates would
    burn a whole restart re-measuring a known outcome.  The campaign
    classifies each distinct point once and carries the multiplicity as
    :attr:`CrashTestRecord.weight` instead.  ``unique_points`` come back
    sorted — the order the instrumented run snapshots them in."""
    pts = np.asarray(points, dtype=np.int64)
    return np.unique(pts, return_counts=True)


def _classify(
    factory: AppFactory,
    snap: Snapshot,
    golden_iterations: int,
    cfg: CampaignConfig,
) -> CrashTestRecord:
    from repro.errors import TrialTimeout

    app = factory.make(runtime=None)
    state = snap.consistent_state if cfg.verified_mode else snap.nvm_state
    assert state is not None
    # Fixed-iteration apps (DEFAULT_MAX_FACTOR == 1) always stop at their
    # nominal count; convergence-driven apps get the paper's 2x allowance.
    factor = min(cfg.max_iter_factor, app.DEFAULT_MAX_FACTOR)
    limit = max(golden_iterations, int(math.ceil(golden_iterations * factor)))
    try:
        with np.errstate(all="ignore"):
            # A failing restore (e.g. a truncated NVM payload) is itself
            # an interruption: the restart cannot even begin.
            start_iter = app.restore(state)
            result = app.run(start_iter=start_iter, max_iterations=limit)
            ok = app.verify()
    except TrialTimeout:
        raise  # a harness deadline, not an application response
    except Exception:
        return CrashTestRecord(
            snap.counter, snap.iteration, snap.region, snap.rates, Response.S3
        )
    if not ok:
        resp = Response.S4
        extra = 0
    elif result.iterations > golden_iterations:
        resp = Response.S2
        extra = result.iterations - golden_iterations
    else:
        resp = Response.S1
        extra = 0
    return CrashTestRecord(
        snap.counter, snap.iteration, snap.region, snap.rates, resp, extra
    )


def _classify_trial(
    factory: AppFactory,
    snap: Snapshot,
    golden_iterations: int,
    cfg: CampaignConfig,
    trial_timeout: float | None = None,
) -> CrashTestRecord:
    """Quarantined classification: a poison trial becomes a ``FAILED``
    record carrying its exception instead of hanging or killing the
    campaign.  ``trial_timeout`` bounds one trial's wall time (Unix main
    thread; elsewhere the parallel engine's chunk timeout is the backstop).
    """
    from repro.harness.resilience import call_with_deadline

    try:
        return call_with_deadline(
            lambda: _classify(factory, snap, golden_iterations, cfg), trial_timeout
        )
    except Exception as exc:
        if (reg := registry()) is not None:
            reg.counter("campaign.quarantined", unit="tests").inc()
        return CrashTestRecord(
            snap.counter,
            snap.iteration,
            snap.region,
            snap.rates,
            Response.FAILED,
            error=f"{type(exc).__name__}: {exc}",
        )


def _instrumented_run(
    factory: AppFactory,
    cfg: CampaignConfig,
    crash_points: np.ndarray | None,
) -> tuple[Runtime, int]:
    if cfg.n_cores > 1:
        from repro.nvct.multicore_runtime import MulticoreRuntime

        rt: Runtime = MulticoreRuntime(
            n_cores=cfg.n_cores,
            plan=cfg.plan,
            crash_points=crash_points,
            capture_consistent=cfg.verified_mode,
        )
    else:
        rt = Runtime(
            hierarchy=cfg.hierarchy,
            plan=cfg.plan,
            crash_points=crash_points,
            capture_consistent=cfg.verified_mode,
            crash_model=cfg.crash_model,
            crash_seed=cfg.seed,
        )
    reg = registry()
    listener = None
    if reg is not None:
        # Span telemetry rides the PR 2 event-listener hooks: nothing is
        # attached (and the runtime emits nothing) unless obs is enabled.
        listener = RuntimeSpanListener(reg.tracer)
        rt.add_listener(listener)
    app = factory.make(runtime=rt)
    with np.errstate(all="ignore"):
        result = app.run()
    if listener is not None:
        listener.close()
    return rt, result.iterations


def phase_span(name: str, factory: AppFactory, **attrs: object):
    """A telemetry span around one campaign phase (no-op with obs off)."""
    reg = registry()
    return maybe_span(reg.tracer if reg else None, name, app=factory.name, **attrs)


def _run_stats(rt: Runtime, iterations: int) -> RunStats:
    assert rt.hierarchy is not None
    return RunStats(
        memory=rt.hierarchy.stats,
        region_profile=rt.region_profile,
        persist_events=rt.persist_events,
        total_accesses=rt.counter,
        window_begin=rt.window_begin or 0,
        iterations=iterations,
    )


def measure_run(factory: AppFactory, cfg: CampaignConfig) -> RunStats:
    """Instrumented execution without crash points: the event counts of a
    production run under ``cfg.plan`` (performance / write-traffic model)."""
    with phase_span("measure", factory):
        rt, iterations = _instrumented_run(factory, cfg, None)
    if (reg := registry()) is not None:
        rt.publish_metrics(reg)
        reg.counter("campaign.measure_runs", unit="runs").inc()
    return _run_stats(rt, iterations)


def _broadcast_plan_records(
    crash_plan, records: list[CrashTestRecord | None], store
) -> None:
    """Fill non-executed records from their class representative.

    Tail members were classified independently; a disagreement with the
    representative falsifies the equivalence relation (identical NVM
    images must classify identically) and aborts loudly rather than
    publishing wrong science.  Broadcast members take response and extra
    iterations from the representative and their own coordinates
    (counter, iteration, region, rates) from the golden metadata — the
    resulting record list is bit-identical to the full campaign's.
    """
    for c, rep in enumerate(crash_plan.reps):
        rep_rec = records[rep]
        assert rep_rec is not None
        for t in crash_plan.tails[c]:
            tail_rec = records[t]
            if tail_rec is None:
                continue
            if (
                tail_rec.response is not rep_rec.response
                or tail_rec.extra_iterations != rep_rec.extra_iterations
            ):
                raise RuntimeError(
                    f"crash-plan purity violation in class {c}: tail point "
                    f"{t} classified {tail_rec.response.name} "
                    f"(+{tail_rec.extra_iterations}) but representative {rep} "
                    f"classified {rep_rec.response.name} "
                    f"(+{rep_rec.extra_iterations}) — the equivalence "
                    "partition does not hold; re-emit the plan and report "
                    "this as an analyzer bug"
                )
    for i, rec in enumerate(records):
        if rec is not None:
            continue
        rep_rec = records[crash_plan.reps[crash_plan.class_ids[i]]]
        assert rep_rec is not None
        counter, iteration, region, rates = store.image_meta(i)
        records[i] = CrashTestRecord(
            counter, iteration, region, rates,
            rep_rec.response, rep_rec.extra_iterations,
        )


def _profile_and_sample(
    factory: AppFactory, cfg: CampaignConfig
) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """Profile pass + sampling: ``(window, points, weights)``."""
    with phase_span("profile", factory):
        counting = CountingRuntime()
        profiling_app = factory.make(runtime=counting)
        profiling_app.run()
    window = (counting.window_begin or 0, counting.counter)

    # Node 0 keeps the historical sampling key; higher shards fold
    # their node index in — real SPMD ranks crash a burst at the same
    # wall clock but different instruction counters, and this is what
    # makes an N=1 cluster bit-identical to the plain campaign.
    sample_key = factory.name if cfg.node == 0 else f"{factory.name}#node{cfg.node}"
    points = _sample_crash_points(
        window, cfg.n_tests, cfg.seed, sample_key, cfg.distribution
    )
    return (window, *_dedupe_crash_points(points))


def campaign_points(
    factory: AppFactory, cfg: CampaignConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Profile one application and sample its campaign's crash points.

    Returns ``(points, weights)``: the sorted deduplicated crash counters
    the instrumented run will snapshot, and the multiplicity each point
    carries (:attr:`CrashTestRecord.weight`).  This is *the* sampling
    function — every :class:`ShardPlan` is built from it, which is what
    lets a stateless worker re-derive a chunk's snapshots from nothing
    but the campaign config and still produce records bit-identical to a
    serial run.
    """
    _window, points, weights = _profile_and_sample(factory, cfg)
    return points, weights


@dataclass(frozen=True, eq=False)
class ShardPlan:
    """The cheap half of one shard: everything decided before its
    instrumented run.  ``cfg`` is the shard's own config (node index and
    trial count already cut); ``to_run`` are the trial indices actually
    classified — all of them, or a crash plan's representatives + tails."""

    cfg: CampaignConfig
    window: tuple[int, int]
    points: np.ndarray
    weights: np.ndarray
    to_run: "Sequence[int]"
    crash_plan: "CrashPlan | None"
    journal: "str | Path | None"

    @property
    def n_snaps(self) -> int:
        return int(self.points.size)


def plan_shards(
    factory: AppFactory,
    cfg: CampaignConfig,
    crash_plan: "CrashPlan | str | Path | None" = None,
    *,
    journal: "str | Path | None" = None,
    cluster: bool = False,
) -> "tuple[list[ShardPlan], list[Burst] | None]":
    """Validate a campaign and plan its shards — no instrumented run.

    ``cluster=False`` treats ``cfg`` as one shard as it stands (a plain
    campaign, or one node's config a scheduler shipped to a worker);
    ``cluster=True`` cuts it across ``cfg.nodes`` emulated nodes by the
    correlated burst schedule, each shard journaling to its per-node
    sibling of ``journal``.  Per shard: profile + sample the crash
    points and check a pruned crash plan against them.  Returns the
    shards and the burst schedule that cut them (``None`` without
    ``cluster``).
    """
    from repro.errors import UsageError
    from repro.memsim.crashmodel import get_model

    simple = cfg.n_cores == 1 and not cfg.verified_mode
    if crash_plan is not None:
        from repro.analysis.equiv_pass import CrashPlan

        if not isinstance(crash_plan, CrashPlan):
            crash_plan = CrashPlan.load(crash_plan)
        crash_plan.validate_for(factory, cfg)
        if not simple:
            raise UsageError(
                "a pruned crash plan requires a single-core, non-verified campaign"
            )
    crash_model = get_model(cfg.crash_model)
    if not crash_model.is_default and not simple:
        raise UsageError(
            f"crash model {crash_model.spec!r} requires a single-core, "
            "non-verified campaign (whole-cache-loss is the only model "
            "multi-core and verified campaigns support)"
        )
    bursts, node_cfgs = None, [cfg]
    if cluster:
        from repro.cluster.emulator import cut_shards
        from repro.cluster.topology import node_journal_path

        bursts, node_cfgs = cut_shards(cfg)
    shards = []
    for node_cfg in node_cfgs:
        window, points, weights = _profile_and_sample(factory, node_cfg)
        if crash_plan is not None and (
            crash_plan.points != points.tolist()
            or crash_plan.weights != weights.tolist()
        ):
            raise UsageError(
                "crash plan's sampled points disagree with this campaign's "
                "sampling — the plan is stale; re-emit with "
                "`repro analyze --emit-plan`"
            )
        path = node_journal_path(journal, node_cfg.node) if cluster and journal else journal
        to_run = crash_plan.executed_indices() if crash_plan is not None else range(points.size)
        shards.append(ShardPlan(node_cfg, window, points, weights, to_run, crash_plan, path))
    return shards, bursts


def _classify_each(
    factory: AppFactory,
    snapshots: "Iterable[Snapshot]",
    golden_iterations: int,
    cfg: CampaignConfig,
    trial_timeout: float | None = None,
) -> "Iterator[CrashTestRecord]":
    """The in-process trial loop: one quarantined restart per snapshot,
    consumed one at a time (so ``snapshots`` may yield borrowed views)."""
    for snap in snapshots:
        yield _classify_trial(factory, snap, golden_iterations, cfg, trial_timeout)


@dataclass
class PreparedShard:
    """The expensive half of one shard: its golden run and its single
    instrumented execution, recorded into a golden store holding every
    crash image.  Owns the in-process trial loop and the result assembly;
    the executors (inline, process pool, socket worker) are functions
    over this object."""

    factory: AppFactory
    plan: ShardPlan
    golden_iterations: int
    runtime: Runtime
    iterations: int
    store: "GoldenStore"

    @property
    def cfg(self) -> CampaignConfig:
        return self.plan.cfg

    @classmethod
    def record(cls, factory: AppFactory, plan: ShardPlan):
        with phase_span("golden", factory):
            golden_result, _ = factory.golden()
        with phase_span("instrumented_run", factory):
            rt, iterations = _instrumented_run(factory, plan.cfg, plan.points)
        store = rt.golden_store()
        if store.n_images != plan.n_snaps:
            raise RuntimeError(
                f"{factory.name}: {plan.n_snaps} crash points but {store.n_images} snapshots"
            )
        if plan.crash_plan is not None:
            from repro.analysis.equiv_pass import partition_signatures

            if partition_signatures(store.image_signatures()) != plan.crash_plan.class_ids:
                raise RuntimeError(
                    "crash plan is stale: the recorded write-back partition "
                    "differs from the plan's equivalence classes — re-emit "
                    "with `repro analyze --emit-plan`"
                )
        return cls(factory, plan, golden_result.iterations, rt, iterations, store)

    def classify(
        self, indices: "Sequence[int]", trial_timeout: float | None = None
    ) -> "Iterator[tuple[int, CrashTestRecord]]":
        """Classify trials ``indices`` (ascending) in process.  Golden
        snapshots are *borrowed* zero-copy views, one trial at a time."""
        return zip(indices, _classify_each(
            self.factory, self.store.snapshots(indices), self.golden_iterations,
            self.cfg, trial_timeout,
        ))

    def result(self, completed: "Mapping[int, CrashTestRecord]") -> CampaignResult:
        """Assemble the campaign result from the committed records."""
        from repro.memsim.crashmodel import get_model

        plan = self.plan
        records = [completed.get(i) for i in range(plan.n_snaps)]
        if plan.crash_plan is not None:
            _broadcast_plan_records(plan.crash_plan, records, self.store)
        assert all(r is not None for r in records)
        # Weights derive deterministically from the seed, so re-applying
        # them on a journal resume reproduces the uninterrupted result.
        for rec, w in zip(records, plan.weights):
            rec.weight = int(w)  # type: ignore[union-attr]
        if (reg := registry()) is not None:
            self.runtime.publish_metrics(reg)
            reg.counter("campaign.runs", unit="campaigns").inc()
            reg.counter("campaign.tests", unit="tests").inc(len(records))
            for rec in records:
                reg.counter(
                    f"campaign.response.{rec.response.name}", unit="tests"  # type: ignore[union-attr]
                ).inc()
        return CampaignResult(
            app=self.factory.name,
            plan=plan.cfg.plan,
            records=records,  # type: ignore[arg-type]
            run_stats=_run_stats(self.runtime, self.iterations),
            golden_iterations=self.golden_iterations,
            executed_trials=len(plan.to_run),
            crash_model=get_model(plan.cfg.crash_model).spec,
        )


def run_shard(
    factory: AppFactory,
    plan: ShardPlan,
    jobs: int | None = None,
    chunk_timeout: float | None = None,
    retry: "RetryPolicy | None" = None,
    trial_timeout: float | None = None,
) -> CampaignResult:
    """The single-shard path every local run goes through: record the
    planned shard, classify what its journal does not already hold
    (inline, or through the pool at ``jobs`` > 1), commit every record
    through the ledger, assemble the result."""
    from repro.nvct.journal import TrialLedger, campaign_header
    from repro.nvct.parallel import classify_pooled, resolve_jobs

    shard = PreparedShard.record(factory, plan)
    ledger = TrialLedger.open(
        plan.journal, campaign_header(factory, plan.cfg), plan.n_snaps
    )
    try:
        missing = ledger.missing(plan.to_run)
        n_jobs = resolve_jobs(jobs)
        with phase_span(
            "classify", factory, tests=plan.n_snaps,
            replayed=plan.n_snaps - len(missing),
        ):
            if n_jobs > 1 and len(missing) > 1:
                classify_pooled(shard, missing, ledger.add, n_jobs, chunk_timeout, retry)
            else:
                for i, rec in shard.classify(missing, trial_timeout):
                    ledger.add(i, rec)
    finally:
        ledger.close()
    return shard.result(ledger.records)


def run_campaign(
    factory: AppFactory,
    cfg: CampaignConfig,
    jobs: int | None = None,
    chunk_timeout: float | None = None,
    journal: "str | Path | None" = None,
    retry: "RetryPolicy | None" = None,
    trial_timeout: float | None = None,
    plan: "CrashPlan | str | Path | None" = None,
) -> CampaignResult:
    """Run a full crash-test campaign for one application and plan.

    ``jobs`` fans the classification phase out over worker processes
    (default: ``REPRO_JOBS``, else serial); the record sequence is
    bit-identical at any job count.  ``chunk_timeout`` bounds one chunk's
    wall time before the engine falls back to serial classification.

    ``journal`` points at a write-ahead JSONL journal
    (:mod:`repro.nvct.journal`): completed trials are fsync'd as they
    finish, and a rerun against the same journal skips them — an
    interrupted campaign resumed this way is bit-identical to an
    uninterrupted one.  ``retry`` tunes chunk retries/backoff in the
    parallel engine; ``trial_timeout`` quarantines any single trial that
    exceeds its deadline as a ``FAILED`` record (wall-clock dependent, so
    off by default).

    ``plan`` is a pruned crash plan (a :class:`repro.analysis.equiv_pass.
    CrashPlan` or a path to one emitted by ``repro analyze --emit-plan``):
    only one representative crash point per NVM-image equivalence class —
    plus each class's purity tail — is actually classified, and the
    representative's response is broadcast to the rest of its class.
    Records and every aggregate stay bit-identical to the full campaign
    (same sampled points, same coordinates, deterministically identical
    responses); the plan must have been emitted for exactly this campaign
    (app, params, config, versions) or a :class:`~repro.errors.UsageError`
    is raised.  Requires a single-core, non-verified campaign.
    """
    if cfg.nodes > 1:
        from repro.errors import UsageError

        raise UsageError(
            f"config asks for a {cfg.nodes}-node cluster: run it through "
            "repro.cluster.run_cluster_campaign (CLI: `repro campaign "
            "--nodes`), which shards the campaign and orchestrates recovery"
        )
    with phase_span("campaign", factory, tests=cfg.n_tests):
        (shard,), _ = plan_shards(factory, cfg, plan, journal=journal)
        return run_shard(factory, shard, jobs, chunk_timeout, retry, trial_timeout)
