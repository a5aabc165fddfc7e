"""Cluster topology axis: how a campaign shards across emulated nodes.

The paper's Sec. 7 emulator models a 100k-400k-node machine; PR 8 gave us
burst-correlated failure *schedules* but every campaign still crashed one
memory image at a time.  :class:`ClusterTopology` is the configuration
axis that changes that: ``nodes`` emulated nodes, each owning its own
cache hierarchy and crash-model survivor overlay, with a correlated
failure process whose bursts can crash several nodes at the same instant.

The topology rides on :class:`~repro.nvct.campaign.CampaignConfig`
(``nodes`` / ``correlation`` / ``burst_window_s`` / ``node``) so it flows
through content keys and journal headers like every other campaign axis.
All four fields are dropped from keys at their defaults, keeping
single-node keys byte-identical to the pre-cluster era; a non-default
topology is additionally fingerprinted into the journal header so
``--resume`` can refuse a journal recorded under a different layout
(see :func:`repro.nvct.journal.campaign_header`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.nvct.campaign import CampaignConfig

__all__ = [
    "ClusterTopology",
    "topology_fingerprint",
    "node_journal_path",
]


@dataclass(frozen=True)
class ClusterTopology:
    """Shape of the emulated cluster a campaign is sharded across."""

    nodes: int = 1
    correlation: float = 0.0
    burst_window_s: float = 600.0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"cluster needs at least one node, got {self.nodes}")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError(f"correlation must be in [0, 1), got {self.correlation}")
        if self.burst_window_s <= 0:
            raise ValueError("burst_window_s must be positive")

    @classmethod
    def from_config(cls, cfg: "CampaignConfig") -> "ClusterTopology":
        return cls(
            nodes=cfg.nodes,
            correlation=cfg.correlation,
            burst_window_s=cfg.burst_window_s,
        )


def topology_fingerprint(cfg: "CampaignConfig") -> dict | None:
    """Journal-header fingerprint of a config's cluster topology.

    ``None`` for the historical single-node default (so pre-cluster
    journals, which carry no ``topology`` field, stay resumable byte for
    byte).  Otherwise a canonical dict pinning every input that shapes
    the shard layout — node count, correlation, burst window, which
    shard this journal belongs to, and the parsed crash model — so a
    resume under any different ``--nodes``/``--correlation``/crash-model
    combination is refused instead of silently mixing shard layouts.
    """
    if cfg.nodes == 1 and cfg.correlation == 0.0 and cfg.node == 0:
        return None
    from repro.memsim.crashmodel import get_model

    return {
        "nodes": cfg.nodes,
        "correlation": cfg.correlation,
        "burst_window_s": cfg.burst_window_s,
        "node": cfg.node,
        "crash_model": get_model(cfg.crash_model).fingerprint(),
    }


def node_journal_path(base: str | Path, node: int) -> Path:
    """Per-node journal file derived from the campaign's ``--resume`` path.

    Node 0 journals at the base path itself (a one-node cluster resumes
    the same file a plain campaign would); node ``n`` > 0 journals at a
    ``.node<n>`` sibling next to it.
    """
    base = Path(base)
    if node == 0:
        return base
    return base.with_name(f"{base.name}.node{node}")
