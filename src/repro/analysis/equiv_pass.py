"""Trace equivalence pass: partition crash points into runs of equal images.

Most sampled crash points land in equivalence classes the campaign has
already measured: NVM content only changes on *write-backs* (dirty-line
evictions and persist flushes), so every crash point between two
consecutive write-back events sees the bit-identical NVM image and —
classification being deterministic — produces the bit-identical restart
outcome.  This pass replays the golden recording's write-back delta log
(:meth:`repro.memsim.golden.GoldenStore.image_signatures`), groups the
sampled crash points into runs of equal dirty-block signature, and
returns a :class:`CrashPlan`: the sampled point set, its partition, one
*representative* per class and a sampled *tail* of extra members per
class.

The campaign engine does not consume a plan: its trial loop
(:func:`repro.nvct.campaign._trial_loop`) reuses an outcome along the
same runs on its own, so a serial campaign restarts exactly
:attr:`CrashPlan.n_classes` times (``tests/analysis/test_equiv_pass.py``
ties the two together).  The plan is the analyzer's report of how far
that reuse prunes a campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import UsageError

if TYPE_CHECKING:
    from repro.apps.base import AppFactory
    from repro.memsim.golden import GoldenStore
    from repro.nvct.campaign import CampaignConfig

__all__ = [
    "CrashPlan",
    "partition_signatures",
    "plan_from_store",
    "build_crash_plan",
]

#: default number of extra class members sampled per class
DEFAULT_TAIL = 1


def partition_signatures(signatures: list[tuple[int, ...]]) -> list[int]:
    """Class id per crash point, from per-point dirty-block signatures.

    The partition is a run-length grouping: a class is one run of equal
    consecutive signatures, and class ids are dense and ascending.  Equal
    signatures are usually consecutive (delta bounds are monotone in the
    crash-point index), but a crash model's overlay digest can repeat at
    non-adjacent points (``torn``); those runs get separate ids, exactly
    as the trial loop restarts each of them once.
    """
    class_ids: list[int] = []
    current = -1
    prev: tuple[int, ...] | None = None
    for sig in signatures:
        if sig != prev:
            current += 1
            prev = sig
        class_ids.append(current)
    return class_ids


@dataclass
class CrashPlan:
    """The equivalence partition of one campaign's sampled crash points.

    ``points`` are the sampled crash points (the exact set the campaign
    runs); ``class_ids[i]`` assigns point *i* to an equivalence class;
    ``reps[c]`` is the first point index of class *c*; ``tails[c]`` are
    sampled extra point indices of class *c*.
    """

    app: str
    points: list[int]
    class_ids: list[int]
    reps: list[int]
    tails: list[list[int]] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    def executed_indices(self) -> list[int]:
        """Sorted point indices of every representative and tail member."""
        out = set(self.reps)
        for tail in self.tails:
            out.update(tail)
        return sorted(out)

    def summary(self) -> str:
        executed = len(self.executed_indices())
        ratio = self.n_points / executed if executed else float("nan")
        return (
            f"crash plan: {self.app}: {self.n_points} sampled points -> "
            f"{self.n_classes} equivalence classes "
            f"({executed} executed trials incl. purity tail, "
            f"{ratio:.1f}x fewer than naive)"
        )


def plan_from_store(
    factory: "AppFactory",
    cfg: "CampaignConfig",
    points: "list[int]",
    store: "GoldenStore",
    tail: int = DEFAULT_TAIL,
) -> CrashPlan:
    """Partition an already-recorded golden store into a crash plan."""
    from repro.util.rng import derive_rng

    class_ids = partition_signatures(store.image_signatures())
    n_classes = (max(class_ids) + 1) if class_ids else 0
    members: list[list[int]] = [[] for _ in range(n_classes)]
    for i, c in enumerate(class_ids):
        members[c].append(i)
    reps = [m[0] for m in members]
    rng = derive_rng(cfg.seed, "crash-plan-tail", factory.name)
    tails: list[list[int]] = []
    for m in members:
        rest = m[1:]
        k = min(tail, len(rest))
        if k:
            picked = sorted(int(rest[j]) for j in rng.choice(len(rest), size=k, replace=False))
        else:
            picked = []
        tails.append(picked)
    return CrashPlan(
        app=factory.name,
        points=[int(p) for p in points],
        class_ids=class_ids,
        reps=reps,
        tails=tails,
    )


def build_crash_plan(
    factory: "AppFactory", cfg: "CampaignConfig", tail: int = DEFAULT_TAIL
) -> CrashPlan:
    """Compute the crash plan of one campaign.

    Plans and records the campaign's one shard through the engine's own
    pipeline (:func:`~repro.nvct.campaign.plan_shards` →
    :meth:`~repro.nvct.campaign.PreparedShard.record` — the campaign's
    snapshot phase, no restarts), replays the delta log into per-point
    signatures, and partitions.
    """
    from repro.nvct.campaign import PreparedShard, plan_shards

    if cfg.n_cores > 1 or cfg.verified_mode:
        raise UsageError("crash plans require a single-core, non-verified campaign")
    (shard,), _ = plan_shards(factory, cfg)
    store = PreparedShard.record(factory, shard).store
    assert store is not None
    return plan_from_store(factory, cfg, shard.points.tolist(), store, tail=tail)
