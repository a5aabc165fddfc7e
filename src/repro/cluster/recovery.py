"""Per-burst recovery orchestration: NVM restart vs. checkpoint rollback.

After a correlated burst crashes ``k`` nodes at once, each victim's
post-crash NVM image has already been classified by the campaign engine
(the same S1-S4 taxonomy as Fig. 3).  The orchestrator turns those
*measured* outcomes into per-node recovery decisions, the way Yang et
al. (PAPERS.md) argue recovery should be decided — from observed
consistency, not pessimistic global rollback:

* **NVM restart** (``nvm_restart``) — the image passed the app's
  acceptance/recomputability check (response S1, or S2 with extra
  iterations): the node reloads its data objects from NVM at
  ``t_r_nvm_s`` and loses no checkpointed work.
* **Checkpoint rollback** (``rollback``) — the image failed (S3
  interruption, S4 verification failure, or a quarantined FAILED
  trial): the node restores the last checkpoint at
  :attr:`~repro.checkpoint.multilevel.MultiLevelCheckpointModel.t_restore`.

Rollback is **coordinated**: a node rolling back past the last
consistent cut drags every surviving peer back with it (the
Huang-et-al. multi-node persistence/rollback tradeoff), so a burst with
even one rollback rewinds the whole cluster and the burst's NVM
restarts become moot for lost work — but each victim's *decision* is
still recorded from its own image, because the NVM-restart/rollback mix
is exactly what :func:`repro.system.efficiency.efficiency_measured_multinode`
consumes.  A burst of pure NVM restarts resynchronizes with surviving
peers (``t_sync``) only when there *are* surviving peers — the same
gating the efficiency model applies.

Everything here is pure bookkeeping over already-deterministic campaign
records, so a recovery log replays bit-identically from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.nvct.campaign import Response

if TYPE_CHECKING:
    from repro.checkpoint.multilevel import MultiLevelCheckpointModel
    from repro.cluster.emulator import Burst
    from repro.nvct.campaign import CrashTestRecord

__all__ = [
    "NVM_RESTART",
    "ROLLBACK",
    "NodeRecovery",
    "BurstRecovery",
    "RecoveryLog",
    "RecoveryOrchestrator",
]

NVM_RESTART = "nvm_restart"
ROLLBACK = "rollback"

#: Responses whose post-crash image passes the acceptance check: the app
#: restarted from NVM and verified (possibly with extra iterations).
_RESTARTABLE = (Response.S1, Response.S2)


@dataclass(frozen=True)
class NodeRecovery:
    """One crashed node's measured image outcome and recovery decision."""

    node: int
    counter: int  # crash point (access counter) the image was taken at
    response: str  # Response.name of the measured classification
    decision: str  # NVM_RESTART or ROLLBACK
    extra_iterations: int = 0

    @property
    def rolled_back(self) -> bool:
        return self.decision == ROLLBACK


@dataclass(frozen=True)
class BurstRecovery:
    """Recovery of one correlated burst: per-victim decisions plus the
    coordinated consequences for the rest of the cluster."""

    index: int
    time_s: float
    victims: tuple[NodeRecovery, ...]
    #: nodes dragged back by coordinated rollback: surviving non-victims
    #: plus victims whose own image was restartable (their NVM restart is
    #: moot once a peer rewinds the cluster).  0 for a pure-NVM burst.
    peers_rewound: int
    t_recover_s: float

    @property
    def size(self) -> int:
        return len(self.victims)

    @property
    def rollbacks(self) -> int:
        return sum(1 for v in self.victims if v.rolled_back)

    @property
    def nvm_restarts(self) -> int:
        return self.size - self.rollbacks

    @property
    def coordinated(self) -> bool:
        """Did this burst force a coordinated cluster-wide rollback?"""
        return self.rollbacks > 0


@dataclass
class RecoveryLog:
    """The per-node recovery decision log of one cluster campaign."""

    nodes: int
    bursts: list[BurstRecovery] = field(default_factory=list)

    def mix(self) -> dict[str, int]:
        """Node-level decision counts: ``{"nvm_restart": .., "rollback": ..}``."""
        out = {NVM_RESTART: 0, ROLLBACK: 0}
        for burst in self.bursts:
            out[NVM_RESTART] += burst.nvm_restarts
            out[ROLLBACK] += burst.rollbacks
        return out

    def burst_mix(self) -> dict[str, int]:
        """Burst-level outcomes: a burst rolls back iff any victim does."""
        out = {NVM_RESTART: 0, ROLLBACK: 0}
        for burst in self.bursts:
            out[ROLLBACK if burst.coordinated else NVM_RESTART] += 1
        return out

    def by_burst_size(self) -> dict[int, dict[str, int]]:
        """Per burst size k: bursts seen, NVM restarts, rollbacks, rewinds."""
        out: dict[int, dict[str, int]] = {}
        for burst in self.bursts:
            row = out.setdefault(
                burst.size,
                {"bursts": 0, NVM_RESTART: 0, ROLLBACK: 0, "peers_rewound": 0},
            )
            row["bursts"] += 1
            row[NVM_RESTART] += burst.nvm_restarts
            row[ROLLBACK] += burst.rollbacks
            row["peers_rewound"] += burst.peers_rewound
        return dict(sorted(out.items()))

    def total_recovery_s(self) -> float:
        return float(sum(b.t_recover_s for b in self.bursts))

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "bursts": [
                {
                    "index": b.index,
                    "time_s": b.time_s,
                    "peers_rewound": b.peers_rewound,
                    "t_recover_s": b.t_recover_s,
                    "victims": [
                        {
                            "node": v.node,
                            "counter": v.counter,
                            "response": v.response,
                            "decision": v.decision,
                            "extra_iterations": v.extra_iterations,
                        }
                        for v in b.victims
                    ],
                }
                for b in self.bursts
            ],
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "RecoveryLog":
        return cls(
            nodes=int(doc["nodes"]),
            bursts=[
                BurstRecovery(
                    index=int(b["index"]),
                    time_s=float(b["time_s"]),
                    peers_rewound=int(b["peers_rewound"]),
                    t_recover_s=float(b["t_recover_s"]),
                    victims=tuple(
                        NodeRecovery(
                            node=int(v["node"]),
                            counter=int(v["counter"]),
                            response=str(v["response"]),
                            decision=str(v["decision"]),
                            extra_iterations=int(v["extra_iterations"]),
                        )
                        for v in b["victims"]
                    ),
                )
                for b in doc["bursts"]
            ],
        )


class RecoveryOrchestrator:
    """Chooses per-node recovery for every burst and accounts its cost.

    ``checkpoint`` supplies ``t_restore``/``t_sync`` (default: the
    paper's NVMe scenario, checkpointing 64 GB of node memory to a local
    SSD — T_chk ~= 32 s); ``t_r_nvm_s`` is the EasyCrash reload-from-NVM
    time (seconds, not minutes — the whole point of the paper).
    """

    def __init__(
        self,
        nodes: int,
        checkpoint: "MultiLevelCheckpointModel | None" = None,
        t_r_nvm_s: float = 2.0,
    ):
        if nodes < 1:
            raise ValueError(f"cluster needs at least one node, got {nodes}")
        if checkpoint is None:
            from repro.checkpoint.multilevel import MultiLevelCheckpointModel

            checkpoint = MultiLevelCheckpointModel.for_scenario(64.0, "ssd")
        self.nodes = nodes
        self.checkpoint = checkpoint
        self.t_r_nvm_s = float(t_r_nvm_s)

    @staticmethod
    def decide(record: "CrashTestRecord") -> str:
        """The acceptance check: restart from NVM iff the measured image
        recomputed and verified (S1/S2); anything else rolls back."""
        return NVM_RESTART if record.response in _RESTARTABLE else ROLLBACK

    def _burst_time(self, size: int, rollbacks: int) -> float:
        """Modeled wall time to recover one burst.

        A coordinated rollback restores checkpoints in parallel and pays
        one sync barrier.  A pure-NVM burst reloads from NVM and pays the
        barrier only when surviving checkpointing peers exist to
        resynchronize with (the ``efficiency_measured_multinode`` gate).
        """
        if rollbacks > 0:
            return self.checkpoint.t_restore + self.checkpoint.t_sync
        survivors = self.nodes - size
        return self.t_r_nvm_s + (self.checkpoint.t_sync if survivors > 0 else 0.0)

    def orchestrate(
        self,
        bursts: "Sequence[Burst]",
        records_by_node: Mapping[int, Sequence["CrashTestRecord"]],
    ) -> RecoveryLog:
        """Walk the burst schedule, consuming each victim node's next
        measured trial record, and emit the recovery decision log.

        ``records_by_node`` maps node -> its trial records in burst-time
        order (one per time the schedule crashes that node; weighted
        records appear once per unit of weight).
        """
        cursor: dict[int, int] = {n: 0 for n in records_by_node}
        log = RecoveryLog(nodes=self.nodes)
        for burst in bursts:
            victims = []
            for node in burst.nodes:
                slot = cursor[node]
                cursor[node] = slot + 1
                rec = records_by_node[node][slot]
                victims.append(
                    NodeRecovery(
                        node=node,
                        counter=rec.counter,
                        response=rec.response.name,
                        decision=self.decide(rec),
                        extra_iterations=rec.extra_iterations,
                    )
                )
            rollbacks = sum(1 for v in victims if v.rolled_back)
            log.bursts.append(
                BurstRecovery(
                    index=burst.index,
                    time_s=burst.time_s,
                    victims=tuple(victims),
                    peers_rewound=self.nodes - rollbacks if rollbacks else 0,
                    t_recover_s=self._burst_time(len(victims), rollbacks),
                )
            )
        for node, seq in records_by_node.items():
            if cursor.get(node, 0) != len(seq):
                raise RuntimeError(
                    f"node {node}: burst schedule consumed {cursor.get(node, 0)} "
                    f"of {len(seq)} trial records — schedule and campaign disagree"
                )
        return log
