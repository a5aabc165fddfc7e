"""Multi-node crash emulation: shard a campaign across emulated nodes.

:func:`run_cluster_campaign` runs one crash-test campaign per emulated
node — each node an SPMD replica of the application with the same cache
hierarchy, golden-pass engine and crash-model survivor overlay (all
reused verbatim from the single-node stack) — and drives the crash
schedule from a :class:`~repro.checkpoint.multilevel.CorrelatedFailureProcess`
so one burst can crash ``k`` nodes at the same instant.  Nodes crash at
the same wall-clock burst but at *different* instruction counters (real
SPMD ranks are never cycle-aligned), which is modeled by giving node
``n`` its own deterministic crash-point schedule: the node-0 schedule is
exactly the historical single-node one, so an N=1 cluster degenerates to
the plain campaign **record for record**.

Replicas execute identically, so the whole cluster is profiled once and
recorded once: one instrumented run at the union of every node's crash
points (:func:`~repro.nvct.campaign.record_shards`) gives each node a
view holding exactly the images its own recording would.  A run on which
a foreign crash point would change a node's images (a divergent split)
is abandoned and the nodes are recorded one by one instead.

Determinism contract: bursts, victim choices, per-node crash points,
classifications and the recovery log are all pure functions of
``(cfg.seed, topology, app)`` — a cluster campaign replays
bit-identically from its seed, including across SIGKILL + ``--resume``
(each node journals separately, see
:func:`repro.cluster.topology.node_journal_path`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.checkpoint.multilevel import CorrelatedFailureProcess
from repro.cluster.recovery import RecoveryLog, RecoveryOrchestrator
from repro.cluster.topology import ClusterTopology
from repro.errors import UsageError
from repro.util.rng import derive_rng, derive_seed

if TYPE_CHECKING:
    from pathlib import Path

    from repro.apps.base import AppFactory
    from repro.checkpoint.multilevel import MultiLevelCheckpointModel
    from repro.nvct.campaign import CampaignConfig, CampaignResult, CrashTestRecord

__all__ = [
    "BURST_MTBF_S",
    "Burst",
    "burst_schedule",
    "trials_per_node",
    "ClusterResult",
    "cut_shards",
    "cluster_result",
    "run_cluster_campaign",
]

#: Emulated-time MTBF of the burst process (one primary failure per hour).
#: Only the *grouping* of arrivals into bursts matters to the emulator —
#: which trials land in the same burst — so the unit is arbitrary as long
#: as it is fixed; ``burst_window_s`` is interpreted relative to it.
BURST_MTBF_S = 3600.0


@dataclass(frozen=True)
class Burst:
    """One correlated failure burst: which nodes crash, and when."""

    index: int
    time_s: float
    nodes: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.nodes)


def burst_schedule(
    topology: ClusterTopology, n_events: int, seed: int
) -> list[Burst]:
    """The deterministic burst schedule for ``n_events`` node crashes.

    Arrivals come from a :class:`CorrelatedFailureProcess` (grouped into
    bursts by ``burst_window_s`` gaps); a raw burst of ``s`` arrivals
    crashes ``min(s, nodes)`` *distinct* victims, drawn without
    replacement from a seeded rng per burst.  The horizon grows by
    doubling until the schedule carries ``n_events`` victims, so the
    result is a pure function of ``(topology, n_events, seed)``.  At
    N=1 every burst crashes node 0 exactly once.
    """
    if n_events <= 0:
        return []
    process = CorrelatedFailureProcess(
        mtbf_s=BURST_MTBF_S,
        correlation=topology.correlation,
        burst_window_s=topology.burst_window_s,
        seed=derive_seed(seed, "cluster-bursts"),
    )
    horizon = 4.0 * BURST_MTBF_S * float(n_events)
    while True:
        groups = process.bursts(horizon)
        if sum(min(len(g), topology.nodes) for g in groups) >= n_events:
            break
        horizon *= 2.0
    out: list[Burst] = []
    remaining = n_events
    for b, group in enumerate(groups):
        k = min(len(group), topology.nodes, remaining)
        rng = derive_rng(seed, "cluster-victims", b)
        victims = np.sort(rng.permutation(topology.nodes)[:k])
        out.append(
            Burst(index=b, time_s=float(group[0]), nodes=tuple(int(v) for v in victims))
        )
        remaining -= k
        if remaining == 0:
            break
    return out


def trials_per_node(bursts: Sequence[Burst], nodes: int) -> list[int]:
    """How many times the schedule crashes each node (its campaign size)."""
    counts = [0] * nodes
    for burst in bursts:
        for node in burst.nodes:
            counts[node] += 1
    return counts


def _slot_records(result: "CampaignResult") -> list["CrashTestRecord"]:
    """Expand weighted records back to one record per sampled crash slot.

    Records come back sorted by crash point with duplicates collapsed
    into weights; the schedule consumes one slot per time it crashes the
    node, in crash-point order, so a weight-w record fills w slots.
    """
    out: list["CrashTestRecord"] = []
    for rec in result.records:
        out.extend([rec] * rec.weight)
    return out


@dataclass
class ClusterResult:
    """Everything one cluster campaign produced."""

    app: str
    topology: ClusterTopology
    crash_model: str
    bursts: list[Burst]
    node_results: dict[int, "CampaignResult"]
    log: RecoveryLog

    @property
    def n_tests(self) -> int:
        return sum(r.n_tests for r in self.node_results.values())

    def recovery_mix(self) -> dict[str, int]:
        return self.log.mix()

    def recomputability(self) -> float:
        """Weight-aware S1 fraction across every node's trials."""
        from repro.nvct.campaign import Response

        total = hits = 0
        for result in self.node_results.values():
            for rec in result.records:
                total += rec.weight
                if rec.response is Response.S1:
                    hits += rec.weight
        return hits / total if total else float("nan")

    def to_dict(self) -> dict:
        from repro.nvct.serialize import record_to_dict

        return {
            "kind": "cluster-campaign",
            "app": self.app,
            "crash_model": self.crash_model,
            "topology": {
                "nodes": self.topology.nodes,
                "correlation": self.topology.correlation,
                "burst_window_s": self.topology.burst_window_s,
            },
            "bursts": [
                {"index": b.index, "time_s": b.time_s, "nodes": list(b.nodes)}
                for b in self.bursts
            ],
            "records": {
                str(node): [record_to_dict(r) for r in result.records]
                for node, result in sorted(self.node_results.items())
            },
            "recovery_log": self.log.to_dict(),
        }


def cut_shards(cfg: "CampaignConfig") -> tuple[list[Burst], list["CampaignConfig"]]:
    """Cut one campaign into per-node shard configs: ``(bursts, cfgs)``.

    ``cfg.n_tests`` is the *total* number of node crashes across the
    cluster; every other parameter applies per shard.  Node ``n`` gets as
    many trials as the burst schedule crashes it, and no shard if never.
    :func:`repro.nvct.campaign.plan_shards` is the only caller, so the
    emulator and the service scheduler agree shard for shard.
    """
    if cfg.node != 0:
        raise UsageError(
            "the cluster emulator owns shard assignment: pass node=0 "
            f"(got node={cfg.node})"
        )
    if cfg.n_cores > 1 or cfg.verified_mode:
        raise UsageError(
            "cluster emulation requires single-core, non-verified "
            "campaigns (each node is one emulated rank)"
        )
    try:
        topology = ClusterTopology.from_config(cfg)
    except ValueError as exc:
        # Same contract as a bad --crash-model spec: a usage error,
        # not an internal failure (the CLI maps it to exit 2).
        raise UsageError(str(exc)) from exc
    bursts = burst_schedule(topology, cfg.n_tests, cfg.seed)
    counts = trials_per_node(bursts, topology.nodes)
    return bursts, [
        replace(cfg, node=node, n_tests=n) for node, n in enumerate(counts) if n > 0
    ]


def run_cluster_campaign(
    factory: "AppFactory",
    cfg: "CampaignConfig",
    *,
    jobs: int | None = None,
    chunk_timeout: float | None = None,
    journal: "str | Path | None" = None,
    trial_timeout: float | None = None,
    checkpoint: "MultiLevelCheckpointModel | None" = None,
) -> ClusterResult:
    """Run one multi-node crash campaign: a sharding of the campaign plan.

    The shards of :func:`~repro.nvct.campaign.plan_shards` (one profile
    pass) are recorded by :func:`~repro.nvct.campaign.record_shards` —
    one shared instrumented run, or one per shard after a divergent
    split — and each is classified through the same single-shard path as
    a plain campaign (:func:`~repro.nvct.campaign.run_shard`: per-node
    journal and ledger); the recovery orchestrator then replays the
    burst schedule over the measured records.  ``jobs`` /
    ``chunk_timeout`` / ``trial_timeout`` mean what they mean
    for :func:`~repro.nvct.campaign.run_campaign`, per shard.
    """
    from repro.nvct.campaign import phase_span, plan_shards, record_shards, run_shard

    plans, bursts = plan_shards(factory, cfg, journal=journal, cluster=True)
    assert bursts is not None
    node_results: dict[int, "CampaignResult"] = {}
    for shard in record_shards(factory, plans):
        with phase_span("campaign", factory, tests=shard.cfg.n_tests):
            node_results[shard.cfg.node] = run_shard(
                shard, jobs, chunk_timeout, trial_timeout
            )
        # Done with this node's images: a per-shard fallback then holds
        # one recording at a time.
        shard.store = None
    return cluster_result(factory, cfg, bursts, node_results, checkpoint)


def cluster_result(
    factory: "AppFactory",
    cfg: "CampaignConfig",
    bursts: list[Burst],
    node_results: dict[int, "CampaignResult"],
    checkpoint: "MultiLevelCheckpointModel | None" = None,
) -> ClusterResult:
    """Orchestrate recovery over every node's finished campaign and bundle
    the cluster result — the tail :func:`run_cluster_campaign` and the
    ``repro serve`` scheduler's assembly share."""
    from repro.memsim.crashmodel import get_model

    log = RecoveryOrchestrator(nodes=cfg.nodes, checkpoint=checkpoint).orchestrate(
        bursts, {n: _slot_records(r) for n, r in node_results.items()}
    )
    return ClusterResult(
        app=factory.name,
        topology=ClusterTopology.from_config(cfg),
        crash_model=get_model(cfg.crash_model).spec,
        bursts=bursts,
        node_results=node_results,
        log=log,
    )
