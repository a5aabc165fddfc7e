"""Human-readable views of a cluster campaign (CLI postmortem)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.recovery import NVM_RESTART, ROLLBACK
from repro.nvct.report import proportion
from repro.util.tables import render_table

if TYPE_CHECKING:
    from repro.cluster.emulator import ClusterResult
    from repro.cluster.recovery import RecoveryLog

__all__ = ["cluster_summary", "recovery_mix_table", "decision_log"]


def cluster_summary(result: "ClusterResult") -> str:
    """Headline figures of one cluster campaign."""
    mix = result.recovery_mix()
    burst_mix = result.log.burst_mix()
    k_max = max((b.size for b in result.bursts), default=0)
    lines = [
        f"application: {result.app}",
        f"topology: {result.topology.nodes} node(s), "
        f"correlation {result.topology.correlation:g}, "
        f"burst window {result.topology.burst_window_s:g}s",
        f"crash model: {result.crash_model}",
        f"bursts: {len(result.bursts)} ({result.n_tests} node crashes, "
        f"largest burst k={k_max})",
        f"recovery mix: {mix[NVM_RESTART]} NVM restart(s), "
        f"{mix[ROLLBACK]} rollback(s) "
        f"({burst_mix[ROLLBACK]} coordinated-rollback burst(s))",
        f"recomputability: {proportion(result.s1_count(), result.n_tests, '.3f')}",
        f"modeled recovery time: {result.log.total_recovery_s():.1f}s",
    ]
    return "\n".join(lines)


def recovery_mix_table(log: "RecoveryLog") -> str:
    """NVM restarts vs rollbacks per burst size (the paper's measured mix)."""
    rows = []
    for size, row in log.by_burst_size().items():
        rows.append(
            [size, row["bursts"], row[NVM_RESTART], row[ROLLBACK], row["peers_rewound"]]
        )
    return render_table(
        ["Burst size", "Bursts", "NVM restarts", "Rollbacks", "Peers rewound"],
        rows,
        title="Recovery mix by burst size",
    )


def decision_log(log: "RecoveryLog", limit: int = 10) -> str:
    """The first ``limit`` bursts' per-node decisions, one line each."""
    lines = []
    for burst in log.bursts[:limit]:
        decisions = ", ".join(
            f"node{v.node}@{v.counter}:{v.response}->"
            + ("nvm" if not v.rolled_back else "rollback")
            for v in burst.victims
        )
        suffix = (
            f" [coordinated rollback, {burst.peers_rewound} peer(s) rewound]"
            if burst.coordinated
            else ""
        )
        lines.append(f"burst {burst.index} t={burst.time_s:.0f}s: {decisions}{suffix}")
    if len(log.bursts) > limit:
        lines.append(f"... {len(log.bursts) - limit} more burst(s)")
    return "\n".join(lines)
