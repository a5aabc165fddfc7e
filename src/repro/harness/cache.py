"""Persistent, content-addressed cache for expensive experiment artifacts.

A full benchmark session recomputes every campaign, measurement, and
EasyCrash planning workflow from scratch; at ``REPRO_BENCH_SCALE=paper``
that is hours of simulation that produce exactly the same artifacts on
every run (the whole pipeline is seed-deterministic).  This cache keeps
those artifacts on disk, keyed by *content*: the key is a SHA-256 over
the application identity (name + factory parameters), the full campaign
or planner configuration (including the persistence-plan dict exactly as
the file format serializes it), and the package version.  Any change to
any input yields a different key, so stale hits are impossible and no
invalidation logic is needed.

Formats: campaigns and run statistics round-trip through the JSON dicts
of :mod:`repro.nvct.serialize`; planning reports (deeply nested result
objects) are pickled.  Every entry is a sealed file of
:mod:`repro.harness.store`: the magic, one CRC-sealed header line
(``kind``, schema version, payload CRC-32, git sha, creation time), then
the payload, all verified on every read.  A corrupted or unreadable
entry is **quarantined** (moved under ``quarantine/``, never silently
deleted), counted, and treated as a miss — the artifact is recomputed
and rewritten, never raised to the caller.  An entry without the seal,
or in an older layout, is bad bytes like any other.

Enable by pointing ``REPRO_CACHE_DIR`` at a directory (created on
demand); :class:`~repro.harness.context.ExperimentContext` then consults
the cache before computing anything.  ``REPRO_CACHE_QUOTA`` (bytes, or
``500m``/``2g``) bounds the store's disk footprint: after every write
the least-recently-used entries are evicted until the store fits (see
:meth:`ArtifactCache.gc`), so unattended multi-week campaigns cannot
fill the disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import __version__
from repro.harness import store as store_mod
from repro.harness.store import GCReport, LRUIndex, parse_quota
from repro.obs import registry as obs_registry
from repro.nvct.serialize import (
    FORMAT_VERSION,
    campaign_from_dict,
    campaign_to_dict,
    plan_to_dict,
    run_stats_from_dict,
    run_stats_to_dict,
)

if TYPE_CHECKING:
    from repro.apps.base import AppFactory
    from repro.core.planner import EasyCrashConfig, EasyCrashPlanReport
    from repro.nvct.campaign import CampaignConfig, CampaignResult, RunStats

__all__ = [
    "ArtifactCache",
    "fingerprint",
    "plan_fingerprint",
    "content_key",
    "campaign_key",
    "measure_key",
    "plan_report_key",
]

ENV_VAR = "REPRO_CACHE_DIR"
QUOTA_ENV_VAR = store_mod.QUOTA_ENV_VAR


def _canon(obj: Any) -> Any:
    """JSON-compatible canonical form of a key ingredient."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _canon(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    text = json.dumps(_canon(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def plan_fingerprint(plan) -> str:
    """Stable fingerprint of one persistence plan (via its file-format dict)."""
    return fingerprint(plan_to_dict(plan))


def _versions() -> list:
    return [__version__, FORMAT_VERSION]


def content_key(kind: str, factory: "AppFactory", cfg: "CampaignConfig") -> str:
    """Content key of one ``kind`` of artifact computed from ``cfg``: the
    app, its factory parameters, the package versions and the whole
    campaign document (:meth:`CampaignConfig.to_doc`)."""
    return fingerprint(
        {
            "kind": kind,
            "versions": _versions(),
            "app": factory.name,
            "params": factory.params,
            "config": cfg.to_doc(),
        }
    )


def campaign_key(factory: "AppFactory", cfg: "CampaignConfig") -> str:
    """Content key of ``run_campaign(factory, cfg)``."""
    return content_key("campaign", factory, cfg)


def measure_key(factory: "AppFactory", cfg: "CampaignConfig") -> str:
    """Content key of ``measure_run(factory, cfg)``."""
    return content_key("measure", factory, cfg)


def plan_report_key(factory: "AppFactory", cfg: "EasyCrashConfig") -> str:
    """Content key of ``plan_easycrash(factory, cfg)``."""
    return fingerprint(
        {
            "kind": "plan-report",
            "versions": _versions(),
            "app": factory.name,
            "params": factory.params,
            "config": cfg,
        }
    )


class ArtifactCache:
    """On-disk artifact store with hit/miss/error accounting.

    Layout: ``root/<kind>/<key[:2]>/<key>.{json,pkl}``, each entry a
    :mod:`repro.harness.store` sealed file.  Writes are
    atomic and durable: the payload is fsync'd to a same-directory temp
    file and published with ``os.replace`` (the directory is fsync'd
    too), so a crash or concurrent session can at worst lose a store —
    never leave a torn entry.  A failed store is counted
    (``store_errors``) and swallowed: the cache is an accelerator, and a
    flaky disk must not take the campaign down with it.  Reads whose
    head or payload fails verification or that decode to garbage are
    quarantined, counted as errors *and* misses — the artifact is
    recomputed and rewritten, never raised to the caller.

    ``quota`` (default: ``REPRO_CACHE_QUOTA``) bounds the on-disk bytes;
    after every store, least-recently-used entries (tracked by the
    logical-clock :class:`~repro.harness.store.LRUIndex` at the root)
    are evicted until the store fits.
    """

    def __init__(self, root: str | Path, quota: int | str | None = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quota = parse_quota(
            quota if quota is not None else os.environ.get(QUOTA_ENV_VAR)
        )
        self.index = LRUIndex(self.root)
        self.hits = 0
        self.misses = 0
        self.errors = 0  # corrupted/unreadable entries (also counted as misses)
        self.stores = 0
        self.store_errors = 0  # failed writes (entry simply not cached)
        self.quarantined = 0  # corrupt entries moved aside (subset of errors)
        self.evictions = 0  # entries removed by quota GC

    @staticmethod
    def from_env() -> "ArtifactCache | None":
        """The cache configured by ``REPRO_CACHE_DIR``, or None."""
        root = os.environ.get(ENV_VAR, "").strip()
        return ArtifactCache(root) if root else None

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "stores": self.stores,
            "store_errors": self.store_errors,
            "quarantined": self.quarantined,
            "evictions": self.evictions,
        }

    def _count(self, outcome: str) -> None:
        setattr(self, outcome, getattr(self, outcome) + 1)
        if (reg := obs_registry()) is not None:
            reg.counter(f"artifact_cache.{outcome}", unit="ops").inc()
            lookups = self.hits + self.misses
            if lookups:
                reg.gauge("artifact_cache.hit_ratio", unit="ratio").set(
                    self.hits / lookups
                )

    # -- plumbing -------------------------------------------------------------

    def _path(self, kind: str, key: str, ext: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.{ext}"

    def _rel(self, path: Path) -> str:
        return path.relative_to(self.root).as_posix()

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (self-healing: recompute replaces it)."""
        if store_mod.quarantine_file(path, self.root) is not None:
            self.quarantined += 1
            if (reg := obs_registry()) is not None:
                reg.counter("artifact_cache.quarantined", unit="entries").inc()
        self.index.forget(self._rel(path))

    def _read(self, kind: str, key: str, ext: str, decode) -> Any | None:
        path = self._path(kind, key, ext)
        if not path.exists():
            self._count("misses")
            return None
        try:
            data = path.read_bytes()
        except OSError:
            # Transient I/O failure: the entry itself may be fine — miss,
            # but leave it in place.
            self._count("errors")
            self._count("misses")
            return None
        try:
            _, offset = store_mod.open_head(data, store_mod.ENTRY_KIND)
            artifact = decode(data[offset:])
        except Exception:
            # Header/CRC failure or undecodable payload: the bytes on
            # disk are bad.  Quarantine the entry and fall through to a
            # recompute — one flipped bit costs one recomputation.
            self._quarantine(path)
            self._count("errors")
            self._count("misses")
            return None
        self.index.touch(self._rel(path))
        self._count("hits")
        return artifact

    def _write(self, kind: str, key: str, ext: str, payload: bytes) -> bool:
        """Atomically publish one sealed entry; returns whether it landed.

        The write itself is :func:`repro.harness.store.atomic_write_bytes`
        (payload fsync'd → ``os.replace`` → directory fsync, temp file
        unlinked on failure).  A failure at any point is *counted*, not
        raised — the caller's artifact is already computed and the
        campaign goes on.  A successful store updates the LRU index and,
        when a quota is configured, immediately enforces it.
        """
        path = self._path(kind, key, ext)
        try:
            head = store_mod.seal_head(
                store_mod.ENTRY_KIND,
                payload_crc32=store_mod.crc32(payload),
                git_sha=store_mod.store_git_sha(),
                created_at=store_mod.created_at(),
            )
            store_mod.atomic_write_bytes(path, [head, payload])
        except Exception:
            self._count("store_errors")
            return False
        self.index.touch(self._rel(path))
        self._count("stores")
        if self.quota is not None:
            self.gc()
        return True

    # -- disk governance -------------------------------------------------------

    def gc(self, quota: int | None = None) -> GCReport:
        """Evict least-recently-used entries until the store fits the quota.

        ``quota`` defaults to the configured one; with neither set this
        is a no-op report.  Quarantined records never count against the
        quota and are never evicted (they are postmortem evidence, not
        cache state).
        """
        limit = quota if quota is not None else self.quota
        if limit is None:
            entries = store_mod.collect_entries(self.root)
            total = sum(size for _, size in entries)
            return GCReport(quota=0, total_before=total, total_after=total)
        report = store_mod.run_gc(self.root, limit, self.index)
        self.evictions += len(report.evicted)
        if report.evicted and (reg := obs_registry()) is not None:
            reg.counter("artifact_cache.evictions", unit="entries").inc(
                len(report.evicted)
            )
        return report

    def disk_usage(self) -> int:
        """Total bytes of live entries (quarantine and index excluded)."""
        return sum(size for _, size in store_mod.collect_entries(self.root))

    # -- campaigns ------------------------------------------------------------

    def get_campaign(self, key: str) -> "CampaignResult | None":
        return self._read(
            "campaign", key, "json",
            lambda data: campaign_from_dict(json.loads(data.decode("utf-8"))),
        )

    def put_campaign(self, key: str, result: "CampaignResult") -> None:
        doc = json.dumps(campaign_to_dict(result), indent=1)
        self._write("campaign", key, "json", doc.encode())

    # -- run statistics --------------------------------------------------------

    def get_stats(self, key: str) -> "RunStats | None":
        return self._read(
            "stats", key, "json",
            lambda data: run_stats_from_dict(json.loads(data.decode("utf-8"))),
        )

    def put_stats(self, key: str, stats: "RunStats") -> None:
        doc = json.dumps(run_stats_to_dict(stats), indent=1)
        self._write("stats", key, "json", doc.encode())

    # -- planning reports -------------------------------------------------------

    def get_plan_report(self, key: str) -> "EasyCrashPlanReport | None":
        from repro.core.planner import EasyCrashPlanReport

        def decode(data: bytes) -> "EasyCrashPlanReport":
            report = pickle.loads(data)
            if not isinstance(report, EasyCrashPlanReport):
                # Wrong type counts as corruption, not a hit.
                raise TypeError(f"plan entry holds {type(report).__name__}")
            return report

        return self._read("plan", key, "pkl", decode)

    def put_plan_report(self, key: str, report: "EasyCrashPlanReport") -> None:
        self._write(
            "plan", key, "pkl",
            pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL),
        )
