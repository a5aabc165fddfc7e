"""Multi-node crash emulation (Sec. 7 at cluster scale).

Shards a crash-test campaign across N emulated nodes, drives correlated
failure bursts that crash several nodes at the same instant, and
orchestrates per-node recovery — NVM restart when the measured image
passes the acceptance check, coordinated checkpoint rollback otherwise.
See :mod:`repro.cluster.emulator` for the execution model and
:mod:`repro.cluster.recovery` for the decision semantics.
"""

from repro.cluster.emulator import (
    BURST_MTBF_S,
    Burst,
    ClusterResult,
    NodeLease,
    burst_schedule,
    run_cluster_campaign,
    trials_per_node,
)
from repro.cluster.recovery import (
    NVM_RESTART,
    ROLLBACK,
    BurstRecovery,
    NodeRecovery,
    RecoveryLog,
    RecoveryOrchestrator,
)
from repro.cluster.topology import ClusterTopology, node_journal_path

__all__ = [
    "BURST_MTBF_S",
    "Burst",
    "ClusterResult",
    "ClusterTopology",
    "NodeLease",
    "NodeRecovery",
    "BurstRecovery",
    "RecoveryLog",
    "RecoveryOrchestrator",
    "NVM_RESTART",
    "ROLLBACK",
    "burst_schedule",
    "node_journal_path",
    "run_cluster_campaign",
    "trials_per_node",
]
