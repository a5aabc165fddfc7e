"""Trace equivalence pass: partition crash points, emit pruned crash plans.

Most sampled crash points land in equivalence classes the campaign has
already measured: NVM content only changes on *write-backs* (dirty-line
evictions and persist flushes), so every crash point between two
consecutive write-back events sees the bit-identical NVM image and —
classification being deterministic — produces the bit-identical restart
outcome.  This pass replays the golden recording's write-back delta log
(:meth:`repro.memsim.golden.GoldenStore.image_signatures`), groups the
sampled crash points by dirty-block signature, and emits a
:class:`CrashPlan`: the full sampled point set, its partition into
equivalence classes, one *representative* per class to actually execute,
and a sampled *tail* of extra members per class whose classification is
re-run and cross-checked against the representative (an online purity
audit of the equivalence relation).

``run_campaign(plan=...)`` consumes the plan: it classifies only the
representatives (plus tails), broadcasts each representative's response
to its class, and takes every record's coordinates (counter, iteration,
region, per-object inconsistent rates) from the crash point's own golden
metadata — so the pruned campaign's records, and every aggregate derived
from them, are **bit-identical** to the full campaign's while executing
``n_classes + n_tails`` restarts instead of ``n_points``
(``tests/analysis/test_equiv_pass.py`` asserts both properties).

A plan is only valid for the exact campaign it was computed from; it
embeds the campaign content fingerprint (same ingredients as the
artifact cache's campaign key) and :func:`CrashPlan.validate_for`
refuses anything else with a usage error rather than silently producing
wrong science.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import UsageError

if TYPE_CHECKING:
    from repro.apps.base import AppFactory
    from repro.harness.cache import ArtifactCache
    from repro.memsim.golden import GoldenStore
    from repro.nvct.campaign import CampaignConfig

__all__ = [
    "CRASH_PLAN_VERSION",
    "CrashPlan",
    "crash_plan_key",
    "partition_signatures",
    "build_crash_plan",
]

CRASH_PLAN_VERSION = 1

#: default number of extra class members classified as a purity audit
DEFAULT_TAIL = 1


def crash_plan_key(factory: "AppFactory", cfg: "CampaignConfig") -> str:
    """Campaign content fingerprint a crash plan is bound to.

    Same ingredients as :func:`repro.harness.cache.campaign_key` (app,
    factory params, campaign document, package versions): any change
    that could alter the sampled points or the write-back schedule
    invalidates the plan.
    """
    from repro.harness.cache import content_key

    return content_key("crash-plan", factory, cfg)


def partition_signatures(signatures: list[tuple[int, ...]]) -> list[int]:
    """Class id per crash point, from per-point dirty-block signatures.

    Signatures are per-object delta bounds, monotone in the crash-point
    index, so equal signatures are necessarily consecutive: the partition
    is a run-length grouping.  Class ids are dense and ascending.
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
    """A pruned crash plan: sampled points, their partition, what to run.

    ``points``/``weights`` are the deduplicated sampled crash points (the
    exact set the full campaign would run) and their multiplicities;
    ``class_ids[i]`` assigns point *i* to an equivalence class;
    ``reps[c]`` is the point index executed for class *c*; ``tails[c]``
    are extra point indices of class *c* that are also executed and
    cross-checked against the representative.
    """

    app: str
    campaign_fingerprint: str
    seed: int
    n_tests: int
    distribution: str
    window: tuple[int, int]
    points: list[int]
    weights: list[int]
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
        """Sorted point indices the pruned campaign actually classifies."""
        out = set(self.reps)
        for tail in self.tails:
            out.update(tail)
        return sorted(out)

    def members(self, c: int) -> list[int]:
        return [i for i, cid in enumerate(self.class_ids) if cid == c]

    # -- validation ------------------------------------------------------------

    def validate_for(self, factory: "AppFactory", cfg: "CampaignConfig") -> None:
        """Refuse to prune a campaign this plan was not computed for."""
        if self.app != factory.name:
            raise UsageError(
                f"crash plan was computed for app {self.app!r}, "
                f"not {factory.name!r}"
            )
        expected = crash_plan_key(factory, cfg)
        if self.campaign_fingerprint != expected:
            raise UsageError(
                f"crash plan fingerprint {self.campaign_fingerprint[:12]}… does "
                f"not match this campaign ({expected[:12]}…): the config, "
                "persistence plan, or code version changed — re-emit with "
                "`repro analyze --emit-plan`"
            )

    def _check_shape(self) -> None:
        n = len(self.points)
        if not (len(self.weights) == len(self.class_ids) == n):
            raise UsageError("crash plan: points/weights/class_ids length mismatch")
        if self.class_ids != partition_signatures([(c,) for c in self.class_ids]):
            # ids must be dense, ascending, consecutive runs
            raise UsageError("crash plan: class ids are not a consecutive partition")
        if len(self.reps) != (max(self.class_ids) + 1 if self.class_ids else 0):
            raise UsageError("crash plan: one representative per class required")
        for c, r in enumerate(self.reps):
            if not (0 <= r < n) or self.class_ids[r] != c:
                raise UsageError(f"crash plan: representative {r} not in class {c}")
        for c, tail in enumerate(self.tails):
            for t in tail:
                if not (0 <= t < n) or self.class_ids[t] != c:
                    raise UsageError(f"crash plan: tail point {t} not in class {c}")

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": CRASH_PLAN_VERSION,
            "kind": "crash-plan",
            "app": self.app,
            "campaign_fingerprint": self.campaign_fingerprint,
            "seed": self.seed,
            "n_tests": self.n_tests,
            "distribution": self.distribution,
            "window": list(self.window),
            "n_classes": self.n_classes,
            "points": list(self.points),
            "weights": list(self.weights),
            "class_ids": list(self.class_ids),
            "reps": list(self.reps),
            "tails": [list(t) for t in self.tails],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CrashPlan":
        if not isinstance(doc, dict) or doc.get("kind") != "crash-plan":
            raise UsageError("not a crash plan document")
        if doc.get("version") != CRASH_PLAN_VERSION:
            raise UsageError(f"unsupported crash plan version {doc.get('version')!r}")
        plan = cls(
            app=str(doc["app"]),
            campaign_fingerprint=str(doc["campaign_fingerprint"]),
            seed=int(doc["seed"]),
            n_tests=int(doc["n_tests"]),
            distribution=str(doc["distribution"]),
            window=(int(doc["window"][0]), int(doc["window"][1])),
            points=[int(p) for p in doc["points"]],
            weights=[int(w) for w in doc["weights"]],
            class_ids=[int(c) for c in doc["class_ids"]],
            reps=[int(r) for r in doc["reps"]],
            tails=[[int(t) for t in tail] for tail in doc.get("tails", [])],
        )
        plan._check_shape()
        return plan

    def save(self, path: str | Path) -> Path:
        """Write the plan as JSON through the atomic artifact writer."""
        from repro.obs.export import write_text

        return write_text(path, json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "CrashPlan":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise UsageError(f"cannot read crash plan {path}: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    # -- reporting -------------------------------------------------------------

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
    window: tuple[int, int],
    points: "list[int]",
    weights: "list[int]",
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
        campaign_fingerprint=crash_plan_key(factory, cfg),
        seed=cfg.seed,
        n_tests=cfg.n_tests,
        distribution=cfg.distribution,
        window=window,
        points=[int(p) for p in points],
        weights=[int(w) for w in weights],
        class_ids=class_ids,
        reps=reps,
        tails=tails,
    )


def build_crash_plan(
    factory: "AppFactory",
    cfg: "CampaignConfig",
    tail: int = DEFAULT_TAIL,
    cache: "ArtifactCache | None" = None,
) -> CrashPlan:
    """Compute a pruned crash plan for one campaign.

    Plans and records the campaign's one shard through the engine's own
    pipeline (:func:`~repro.nvct.campaign.plan_shards` →
    :meth:`~repro.nvct.campaign.PreparedShard.record` — the campaign's
    snapshot phase, no restarts), replays the delta log into per-point
    signatures, and partitions.  With ``cache``
    (or ``REPRO_CACHE_DIR`` via :meth:`ArtifactCache.from_env`), the plan
    is content-addressed by :func:`crash_plan_key` and the delta replay
    is skipped entirely on a warm hit.
    """
    from repro.nvct.campaign import PreparedShard, plan_shards

    if cfg.n_cores > 1 or cfg.verified_mode:
        raise UsageError("crash plans require a single-core, non-verified campaign")
    key = crash_plan_key(factory, cfg)
    if cache is not None:
        cached = cache.get_crash_plan(key)
        if cached is not None and len(cached.executed_indices()) and cached_tail_ok(cached, tail):
            return cached

    (shard,), _ = plan_shards(factory, cfg)
    store = PreparedShard.record(factory, shard).store
    assert store is not None
    plan = plan_from_store(
        factory, cfg, shard.window, shard.points.tolist(), shard.weights.tolist(),
        store, tail=tail,
    )
    if cache is not None:
        cache.put_crash_plan(key, plan)
    return plan


def cached_tail_ok(plan: CrashPlan, tail: int) -> bool:
    """A cached plan satisfies a request iff its tails are at least as
    long as requested (longer tails only add purity checks)."""
    if tail == 0:
        return True
    return all(
        len(t) >= min(tail, len(plan.members(c)) - 1)
        for c, t in enumerate(plan.tails)
    )
