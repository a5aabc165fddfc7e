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
here: :func:`plan_shards` → :func:`record_shards` (one
:class:`PreparedShard` per shard, all from one shared recording) → an
executor → :class:`~repro.nvct.journal.TrialLedger`.
"""

from __future__ import annotations

import enum
import math
import signal
import threading
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, TypeVar

import numpy as np

from repro.errors import TrialTimeout
from repro.memsim.config import CacheLevelConfig, HierarchyConfig
from repro.memsim.stats import MemoryStats
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import CountingRuntime, PersistEvent, RegionProfile, Runtime, Snapshot
from repro.obs import RuntimeSpanListener, maybe_span, registry
from repro.obs.metrics import bump
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # avoid a circular import (apps depend on nvct)
    from collections.abc import Iterator, Mapping, Sequence
    from pathlib import Path

    from repro.apps.base import AppFactory
    from repro.cluster.emulator import Burst
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
    "record_shards",
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
    it carries the harness exception that poisoned the trial.
    """

    counter: int
    iteration: int
    region: str
    rates: dict[str, float]
    response: Response
    extra_iterations: int = 0
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
    # multi-core model (applications may shard work with on_core()), whose
    # per-core L1 and shared LLC are the two levels of ``hierarchy``.
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
    #: canonical crash-model spec the campaign ran under (default:
    #: the paper's whole-cache-loss).
    crash_model: str = "whole-cache-loss"

    # -- headline metrics ---------------------------------------------------
    #
    # Every record is one sampled crash point (the sampler never repeats
    # a point), so every aggregate is a plain count over the records.

    @property
    def n_tests(self) -> int:
        """Number of crash tests."""
        return len(self.records)

    def response_counts(self) -> dict[Response, int]:
        """Number of tests per response."""
        out = {resp: 0 for resp in Response}
        for r in self.records:
            out[r.response] += 1
        return out

    def recomputability(self) -> float:
        """Fraction of tests with response S1 (the paper's definition)."""
        if not self.records:
            return float("nan")
        return self.response_counts()[Response.S1] / len(self.records)

    def response_fractions(self) -> dict[Response, float]:
        counts = self.response_counts()
        if not self.records:
            return {k: 0.0 for k in counts}
        return {k: v / len(self.records) for k, v in counts.items()}

    def mean_extra_iterations(self) -> float:
        """Average extra iterations among S2 tests (Table 1 restart
        overhead); NaN when no test needed extra iterations."""
        s2 = [r for r in self.records if r.response is Response.S2]
        if not s2:
            return float("nan")
        return float(sum(r.extra_iterations for r in s2) / len(s2))

    # -- per-region views -----------------------------------------------------

    def per_region_recomputability(self) -> dict[str, float]:
        """c_k: S1 rate among tests whose crash fell in region k."""
        hits: dict[str, int] = {}
        totals: dict[str, int] = {}
        for r in self.records:
            totals[r.region] = totals.get(r.region, 0) + 1
            if r.response is Response.S1:
                hits[r.region] = hits.get(r.region, 0) + 1
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

    def mean_object_rates(self) -> dict[str, float]:
        """Mean inconsistent rate per candidate object.

        Summation is ``math.fsum``, the correctly rounded sum, so the
        value does not depend on the order of the records.
        """
        if not self.records:
            return {}
        names = sorted(self.records[0].rates)
        return {
            n: math.fsum(r.rates.get(n, 0.0) for r in self.records) / len(self.records)
            for n in names
        }


def _sample_crash_points(
    window: tuple[int, int],
    n_tests: int,
    seed: int,
    key: str,
    distribution: str = "uniform",
) -> np.ndarray:
    """Sample ``min(n_tests, span)`` crash counters from ``window``,
    strictly increasing: every draw is without replacement (``np.unique``
    and a ``setdiff1d`` top-up for the skewed distributions), so no point
    repeats and each one is one crash test."""
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


def _classify(
    factory: AppFactory,
    snap: Snapshot,
    golden_iterations: int,
    cfg: CampaignConfig,
) -> CrashTestRecord:
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
            # The app may prove S4 without recomputing (its pre-check).
            if app.restart_fails(start_iter, limit):
                bump("campaign.restarts_prechecked", unit="tests")
                return CrashTestRecord(
                    snap.counter, snap.iteration, snap.region, snap.rates, Response.S4
                )
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


T = TypeVar("T")


def call_with_deadline(fn: Callable[[], T], deadline: float | None) -> T:
    """Run ``fn`` with a wall-clock deadline, raising :class:`TrialTimeout`.

    Uses ``SIGALRM``/``setitimer``, which only works on Unix in the main
    thread; anywhere else (Windows, worker threads) the deadline is not
    enforceable this way and the call simply runs unbounded.
    """
    if not deadline or deadline <= 0:
        return fn()
    if threading.current_thread() is not threading.main_thread() or not hasattr(
        signal, "setitimer"
    ):
        return fn()

    def _alarm(signum: int, frame: Any) -> None:
        raise TrialTimeout(f"trial exceeded its {deadline:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _classify_trial(
    factory: AppFactory,
    snap: Snapshot,
    golden_iterations: int,
    cfg: CampaignConfig,
    trial_timeout: float | None = None,
) -> CrashTestRecord:
    """Quarantined classification: a poison trial becomes a ``FAILED``
    record carrying its exception instead of hanging or killing the
    campaign.  ``trial_timeout`` bounds one trial's wall time through
    ``SIGALRM``: in the parent and in every ``--jobs`` pool worker (each
    runs trials on its main thread).  Where ``SIGALRM`` is unavailable the
    trial runs unbounded: nothing else bounds it.
    """
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
    split_guard: bool = False,
) -> tuple[Runtime, int]:
    if cfg.n_cores > 1:
        from repro.nvct.multicore_runtime import MulticoreRuntime

        l1, llc = cfg.hierarchy.levels if cfg.hierarchy is not None else (None, None)
        rt: Runtime = MulticoreRuntime(
            n_cores=cfg.n_cores,
            l1=l1,
            llc=llc,
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
            split_guard=split_guard,
        )
    reg = registry()
    listener = None
    if reg is not None:
        # Span telemetry rides the PR 2 event-listener hooks: nothing is
        # attached (and the runtime emits nothing) unless obs is enabled.
        listener = RuntimeSpanListener(reg.tracer)
        rt.add_listener(listener)
    app = factory.make(runtime=rt)
    try:
        with np.errstate(all="ignore"):
            result = app.run()
    finally:
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


def _profile(factory: AppFactory) -> tuple[int, int]:
    """The profile pass: the main-loop crash window ``(begin, end)`` in
    access-counter ticks.  It depends on the application alone, so one
    pass serves every shard of a campaign."""
    bump("campaign.profiles", unit="runs")
    with phase_span("profile", factory):
        counting = CountingRuntime()
        profiling_app = factory.make(runtime=counting)
        profiling_app.run()
    return (counting.window_begin or 0, counting.counter)


def _sample(
    factory: AppFactory, cfg: CampaignConfig, window: tuple[int, int]
) -> np.ndarray:
    """Sample one shard's crash points from ``window``."""
    # Node 0 keeps the historical sampling key; higher shards fold
    # their node index in — real SPMD ranks crash a burst at the same
    # wall clock but different instruction counters, and this is what
    # makes an N=1 cluster bit-identical to the plain campaign.
    sample_key = factory.name if cfg.node == 0 else f"{factory.name}#node{cfg.node}"
    return _sample_crash_points(
        window, cfg.n_tests, cfg.seed, sample_key, cfg.distribution
    )


def campaign_points(
    factory: AppFactory, cfg: CampaignConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Profile one application and sample its campaign's crash points.

    Returns ``(points, weights)``: the sorted distinct crash counters the
    instrumented run will snapshot, and all-ones weights (the pair shape
    the benchmark harness unpacks).  This is *the* sampling function —
    every :class:`ShardPlan` is built from it, so every way of running a
    campaign snapshots exactly the points a serial run does.
    """
    points = _sample(factory, cfg, _profile(factory))
    return points, np.ones(points.size, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class ShardPlan:
    """The cheap half of one shard: everything decided before its
    instrumented run.  ``cfg`` is the shard's own config (node index and
    trial count already cut)."""

    cfg: CampaignConfig
    window: tuple[int, int]
    points: np.ndarray
    journal: "str | Path | None"

    @property
    def n_snaps(self) -> int:
        return int(self.points.size)


def plan_shards(
    factory: AppFactory,
    cfg: CampaignConfig,
    *,
    journal: "str | Path | None" = None,
    cluster: bool = False,
) -> "tuple[list[ShardPlan], list[Burst] | None]":
    """Validate a campaign and plan its shards — no instrumented run.

    ``cluster=False`` treats ``cfg`` as one shard as it stands (a plain
    campaign, or one node's config a scheduler shipped to a worker);
    ``cluster=True`` cuts it across ``cfg.nodes`` emulated nodes by the
    correlated burst schedule, each shard journaling to its per-node
    sibling of ``journal``.  One profile pass measures the crash window
    every shard shares; each shard samples its crash points from that
    window.  Returns the shards and the burst schedule that cut them
    (``None`` without ``cluster``).
    """
    from repro.errors import UsageError
    from repro.memsim.crashmodel import get_model

    if cfg.n_cores < 1:
        raise UsageError(f"a campaign needs at least one core (n_cores={cfg.n_cores})")
    if cfg.n_cores > 1 and cfg.hierarchy is not None and len(cfg.hierarchy.levels) != 2:
        raise UsageError(
            f"a {cfg.n_cores}-core campaign needs a two-level hierarchy (per-core L1, "
            f"shared LLC); this one has {len(cfg.hierarchy.levels)} levels"
        )
    crash_model = get_model(cfg.crash_model)
    if not crash_model.is_default and (cfg.n_cores != 1 or cfg.verified_mode):
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
    window = _profile(factory) if node_cfgs else (0, 0)
    for node_cfg in node_cfgs:
        path = node_journal_path(journal, node_cfg.node) if cluster and journal else journal
        shards.append(ShardPlan(node_cfg, window, _sample(factory, node_cfg, window), path))
    return shards, bursts


def _trial_loop(
    factory: AppFactory,
    store: "GoldenStore",
    golden_iterations: int,
    cfg: CampaignConfig,
    indices: "Sequence[int]",
    trial_timeout: float | None = None,
) -> "Iterator[CrashTestRecord]":
    """The one task body every executor runs — the inline loop, each
    ``--jobs`` pool worker and each ``repro work`` socket worker: classify
    the ascending trial ``indices`` over borrowed views of ``store`` (a
    view is valid only until the next image is materialized), one
    quarantined restart per run of equal images among them.

    A restart's outcome depends only on the image it loads, and equal
    :meth:`~repro.memsim.golden.GoldenStore.image_signatures` mean
    bit-identical images.  So when a trial's signature equals that of the
    last trial classified here, its record takes ``response`` and
    ``extra_iterations`` from that trial and its own coordinates
    (counter, iteration, region, rates) from its snapshot, without a
    restart.  The memo holds one outcome, so it works on *runs* of equal
    images: an image equal to an earlier but not the previous one (a
    ``torn`` overlay can repeat at non-adjacent points) restarts again.
    A missed reuse costs one restart, never a wrong record.  Never
    reused: a ``FAILED`` record, and a verified campaign's trials (they
    restart from the per-point consistent copy, which the signature does
    not cover).
    """
    sigs = None if cfg.verified_mode else store.image_signatures(indices)
    last_sig, last = None, None
    for j, snap in enumerate(store.snapshots(indices)):
        if last is not None and sigs[j] == last_sig:  # type: ignore[index]
            bump("campaign.restarts_reused", unit="tests")
            yield CrashTestRecord(
                snap.counter, snap.iteration, snap.region, snap.rates,
                last.response, last.extra_iterations,
            )
            continue
        bump("campaign.restarts", unit="tests")
        rec = _classify_trial(factory, snap, golden_iterations, cfg, trial_timeout)
        if sigs is not None and rec.response is not Response.FAILED:
            last_sig, last = sigs[j], rec
        else:
            last = None
        yield rec


@dataclass
class PreparedShard:
    """The expensive half of one shard: its golden run and its single
    instrumented execution, recorded into a golden store holding every
    crash image, and the run's statistics.  Owns the result assembly;
    every executor (inline, process pool, socket worker) runs
    :func:`_trial_loop` over its store — socket workers over the copy
    ``repro serve`` publishes.  A scheduler drops ``store`` (``None``)
    once it is published; :meth:`result` never reads it.

    Shards of one campaign usually come from one shared recording
    (:func:`record_shards`): ``store`` is then a view of the shared store
    and ``run_stats`` the shared run's.  Those statistics equal a
    per-shard recording's except ``memory.nvm_writeback_events``, which
    counts write-back sink calls — more crash points split more accesses
    and so regroup the same write-backs into more calls.  (A cluster's
    saved result carries no ``run_stats``, so its bytes do not move.)"""

    factory: AppFactory
    plan: ShardPlan
    golden_iterations: int
    run_stats: RunStats
    store: "GoldenStore | None"

    @property
    def cfg(self) -> CampaignConfig:
        return self.plan.cfg

    @classmethod
    def record(cls, factory: AppFactory, plan: ShardPlan):
        """Record ``plan``'s own points in one instrumented run."""
        bump("campaign.recordings", unit="recordings")
        with phase_span("golden", factory):
            golden_result, _ = factory.golden()
        with phase_span("instrumented_run", factory):
            rt, iterations = _instrumented_run(factory, plan.cfg, plan.points)
        if (reg := registry()) is not None:
            rt.publish_metrics(reg)
        return cls.of(
            factory, plan, golden_result.iterations, _run_stats(rt, iterations), rt.golden_store()
        )

    @classmethod
    def of(
        cls,
        factory: AppFactory,
        plan: ShardPlan,
        golden_iterations: int,
        run_stats: RunStats,
        store: "GoldenStore",
    ) -> "PreparedShard":
        """Wrap a recording of ``plan``'s points, checking it holds one
        image per point."""
        if store.n_images != plan.n_snaps:
            raise RuntimeError(
                f"{factory.name}: {plan.n_snaps} crash points but {store.n_images} snapshots"
            )
        return cls(factory, plan, golden_iterations, run_stats, store)

    def result(self, completed: "Mapping[int, CrashTestRecord]") -> CampaignResult:
        """Assemble the campaign result from the committed records."""
        from repro.memsim.crashmodel import get_model

        plan = self.plan
        records = [completed.get(i) for i in range(plan.n_snaps)]
        assert all(r is not None for r in records)
        if (reg := registry()) is not None:
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
            run_stats=self.run_stats,
            golden_iterations=self.golden_iterations,
            crash_model=get_model(plan.cfg.crash_model).spec,
        )


def record_shards(
    factory: AppFactory, plans: "Sequence[ShardPlan]"
) -> "Iterator[PreparedShard]":
    """Record every shard of one campaign, yielding them in ``plans`` order.

    Shards differ only in node and crash points, so one instrumented run
    at the sorted union of their points holds every shard's images: each
    shard gets a :meth:`~repro.memsim.golden.GoldenStore.select` view of
    its own, bit-identical to recording it alone.  The one way a shared
    run can differ is a *divergent split* (a foreign crash point splits a
    store and a write-back persists the store's unexecuted tail); the run
    is guarded against it and, on one, abandoned — the shards are then
    recorded one by one, each as it is pulled, so a caller that drops a
    shard before taking the next holds one recording at a time.  A single
    shard is recorded as it stands.
    """
    from repro.nvct.runtime import DivergentSplit

    if len(plans) <= 1:
        yield from (PreparedShard.record(factory, plan) for plan in plans)
        return
    # An instrumented run depends on a shard's config minus its cut.
    uncut = replace(plans[0].cfg, node=0, n_tests=0)
    if any(replace(p.cfg, node=0, n_tests=0) != uncut for p in plans):
        raise ValueError("record_shards: the shards belong to different campaigns")
    union = np.unique(np.concatenate([p.points for p in plans]))
    bump("campaign.recordings", unit="recordings")
    with phase_span("golden", factory):
        golden_result, _ = factory.golden()
    try:
        with phase_span("instrumented_run", factory, shards=len(plans)):
            rt, iterations = _instrumented_run(factory, plans[0].cfg, union, split_guard=True)
    except DivergentSplit:
        bump("campaign.divergent_fallbacks", unit="recordings")
        for plan in plans:
            yield PreparedShard.record(factory, plan)
        return
    if (reg := registry()) is not None:
        rt.publish_metrics(reg)
    stats = _run_stats(rt, iterations)
    store = rt.golden_store()
    del rt  # the store keeps what it needs; drop the heap and the cache state
    for plan in plans:
        view = store.select(np.searchsorted(union, plan.points))
        yield PreparedShard.of(factory, plan, golden_result.iterations, stats, view)


def run_shard(
    shard: PreparedShard,
    jobs: int | None = None,
    trial_timeout: float | None = None,
) -> CampaignResult:
    """The single-shard path every local run goes through: classify what
    the recorded shard's journal does not already hold (one
    :func:`~repro.nvct.parallel.classify_snapshots` call, inline or
    through the pool at ``jobs`` > 1), commit every record through the
    ledger, assemble the result."""
    from repro.memsim.golden import GoldenSnapshotSource
    from repro.nvct.journal import TrialLedger, campaign_header
    from repro.nvct.parallel import classify_snapshots

    factory, plan = shard.factory, shard.plan
    assert shard.store is not None
    ledger = TrialLedger.open(
        plan.journal, campaign_header(factory, plan.cfg), plan.n_snaps
    )
    try:
        missing = ledger.missing(range(plan.n_snaps))
        with phase_span(
            "classify", factory, tests=plan.n_snaps,
            replayed=plan.n_snaps - len(missing),
        ):
            classify_snapshots(
                factory, GoldenSnapshotSource(shard.store, missing),
                shard.golden_iterations, shard.cfg, jobs=jobs,
                record_sink=lambda local, rec: ledger.add(missing[local], rec),
                trial_timeout=trial_timeout,
            )
    finally:
        ledger.close()
    return shard.result(ledger.records)


def run_campaign(
    factory: AppFactory,
    cfg: CampaignConfig,
    jobs: int | None = None,
    journal: "str | Path | None" = None,
    trial_timeout: float | None = None,
) -> CampaignResult:
    """Run a full crash-test campaign for one application and plan.

    ``jobs`` fans the classification phase out over worker processes
    (default: ``REPRO_JOBS``, else serial); the record sequence is
    bit-identical at any job count.

    ``journal`` points at a write-ahead JSONL journal
    (:mod:`repro.nvct.journal`): completed trials are fsync'd as they
    finish, and a rerun against the same journal skips them — an
    interrupted campaign resumed this way is bit-identical to an
    uninterrupted one.  ``trial_timeout`` quarantines any single trial that
    exceeds its deadline as a ``FAILED`` record (wall-clock dependent, so
    off by default).
    """
    if cfg.nodes > 1:
        from repro.errors import UsageError

        raise UsageError(
            f"config asks for a {cfg.nodes}-node cluster: run it through "
            "repro.cluster.run_cluster_campaign (CLI: `repro campaign "
            "--nodes`), which shards the campaign and orchestrates recovery"
        )
    with phase_span("campaign", factory, tests=cfg.n_tests):
        (shard,), _ = plan_shards(factory, cfg, journal=journal)
        return run_shard(PreparedShard.record(factory, shard), jobs, trial_timeout)
