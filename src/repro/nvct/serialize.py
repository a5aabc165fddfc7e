"""Campaign (de)serialization.

NVCT's postmortem workflow dumps analysis data to files; this module
round-trips :class:`~repro.nvct.campaign.CampaignResult` through JSON so
campaigns can be archived, diffed across runs, and analyzed offline
(``python -m repro campaign APP --save results.json``).

The same dict round-trips back the persistent artifact cache
(:mod:`repro.harness.cache`).  :func:`pack_snapshot` /
:func:`unpack_snapshot` flatten one snapshot into CRC-checked plain bytes
and back; no campaign path ships snapshots (pool workers replay their
own from the golden store), so they serve the benchmark's transport
probe and the tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.errors import SnapshotCorruptError
from repro.memsim.stats import CacheStats, MemoryStats
from repro.nvct.campaign import CampaignResult, CrashTestRecord, Response, RunStats
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import PersistEvent, RegionProfile, Snapshot

__all__ = [
    "save_campaign",
    "save_cluster_result",
    "load_campaign",
    "plan_to_dict",
    "plan_from_dict",
    "record_to_dict",
    "record_from_dict",
    "run_stats_to_dict",
    "run_stats_from_dict",
    "campaign_to_dict",
    "campaign_from_dict",
    "pack_snapshot",
    "unpack_snapshot",
]

FORMAT_VERSION = 1


def plan_to_dict(plan: PersistencePlan) -> dict:
    """The plan's dict in the campaign file and the campaign document."""
    return {
        "objects": list(plan.objects),
        "region_frequency": dict(plan.region_frequency),
        "at_iteration_end": plan.at_iteration_end,
        "iteration_frequency": plan.iteration_frequency,
        "persist_iterator": plan.persist_iterator,
        "invalidate": plan.invalidate,
    }


def plan_from_dict(d: dict) -> PersistencePlan:
    return PersistencePlan(
        objects=tuple(d["objects"]),
        region_frequency={k: int(v) for k, v in d["region_frequency"].items()},
        at_iteration_end=bool(d["at_iteration_end"]),
        iteration_frequency=int(d.get("iteration_frequency", 1)),
        persist_iterator=bool(d["persist_iterator"]),
        invalidate=bool(d["invalidate"]),
    )


def _memory_to_dict(m: MemoryStats) -> dict:
    return {
        "nvm_writes": m.nvm_writes,
        "nvm_writes_from_evictions": m.nvm_writes_from_evictions,
        "nvm_writes_from_flushes": m.nvm_writes_from_flushes,
        "nvm_writes_from_drain": m.nvm_writes_from_drain,
        "nvm_writes_from_nt": m.nvm_writes_from_nt,
        "nvm_fills": m.nvm_fills,
        "nvm_writeback_events": m.nvm_writeback_events,
        "per_level": {name: cs.as_dict() for name, cs in m.per_level.items()},
    }


def _memory_from_dict(d: dict) -> MemoryStats:
    m = MemoryStats(
        nvm_writes=int(d["nvm_writes"]),
        nvm_writes_from_evictions=int(d["nvm_writes_from_evictions"]),
        nvm_writes_from_flushes=int(d["nvm_writes_from_flushes"]),
        nvm_writes_from_drain=int(d.get("nvm_writes_from_drain", 0)),
        nvm_writes_from_nt=int(d.get("nvm_writes_from_nt", 0)),
        nvm_fills=int(d["nvm_fills"]),
        nvm_writeback_events=int(d.get("nvm_writeback_events", 0)),
    )
    m.per_level = {name: CacheStats(**cs) for name, cs in d["per_level"].items()}
    return m


def run_stats_to_dict(stats: RunStats) -> dict:
    return {
        "memory": _memory_to_dict(stats.memory),
        "region_profile": {
            k: {"accesses": p.accesses, "executions": p.executions}
            for k, p in stats.region_profile.items()
        },
        "persist_events": [asdict(e) for e in stats.persist_events],
        "total_accesses": stats.total_accesses,
        "window_begin": stats.window_begin,
        "iterations": stats.iterations,
    }


def run_stats_from_dict(rs: dict) -> RunStats:
    return RunStats(
        memory=_memory_from_dict(rs["memory"]),
        region_profile={
            k: RegionProfile(accesses=int(p["accesses"]), executions=int(p["executions"]))
            for k, p in rs["region_profile"].items()
        },
        persist_events=[PersistEvent(**e) for e in rs["persist_events"]],
        total_accesses=int(rs["total_accesses"]),
        window_begin=int(rs["window_begin"]),
        iterations=int(rs["iterations"]),
    )


def record_to_dict(r: CrashTestRecord) -> dict:
    """JSON-compatible dict of one crash-test record (file + journal format).

    ``rates`` is emitted in sorted key order — the order a record replayed
    from a (``sort_keys``) journal carries — so a saved campaign's bytes
    do not depend on whether its records were classified or replayed."""
    doc = {
        "counter": r.counter,
        "iteration": r.iteration,
        "region": r.region,
        "rates": {k: float(r.rates[k]) for k in sorted(r.rates)},
        "response": r.response.name,
        "extra_iterations": r.extra_iterations,
    }
    if r.error:
        doc["error"] = r.error
    return doc


def record_from_dict(r: dict) -> CrashTestRecord:
    return CrashTestRecord(
        counter=int(r["counter"]),
        iteration=int(r["iteration"]),
        region=r["region"],
        rates={k: float(v) for k, v in r["rates"].items()},
        response=Response[r["response"]],
        extra_iterations=int(r["extra_iterations"]),
        error=str(r.get("error", "")),
    )


def campaign_to_dict(result: CampaignResult) -> dict:
    """JSON-compatible dict of a full campaign (the file format)."""
    doc = {
        "format": FORMAT_VERSION,
        "app": result.app,
        "golden_iterations": result.golden_iterations,
        "plan": plan_to_dict(result.plan),
        "records": [record_to_dict(r) for r in result.records],
        "run_stats": run_stats_to_dict(result.run_stats),
    }
    # Omit-if-default, like a record's ``error``: campaigns under the paper's
    # whole-cache-loss model keep the historical document shape byte for
    # byte.
    if result.crash_model != "whole-cache-loss":
        doc["crash_model"] = result.crash_model
    return doc


def campaign_from_dict(doc: dict) -> CampaignResult:
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported campaign format: {doc.get('format')!r}")
    records = [record_from_dict(r) for r in doc["records"]]
    return CampaignResult(
        app=doc["app"],
        plan=plan_from_dict(doc["plan"]),
        records=records,
        run_stats=run_stats_from_dict(doc["run_stats"]),
        golden_iterations=int(doc["golden_iterations"]),
        crash_model=str(doc.get("crash_model", "whole-cache-loss")),
    )


def save_campaign(result: CampaignResult, path: str | Path) -> Path:
    """Serialize a campaign to a JSON file; returns the path written.

    Goes through the repository's atomic artifact writer, so a crash
    mid-save can never leave a torn campaign file behind.
    """
    from repro.obs.export import write_text

    return write_text(path, json.dumps(campaign_to_dict(result), indent=1))


def save_cluster_result(result, path: str | Path) -> Path:
    """Serialize a multi-node cluster campaign
    (:class:`~repro.cluster.emulator.ClusterResult`) to a JSON file.

    Same atomic-writer discipline as :func:`save_campaign`; the document
    carries ``"kind": "cluster-campaign"`` plus the burst schedule,
    per-node records and the recovery-decision log.  Keys are sorted so
    the file is byte-stable across journal-resumed reruns (a resumed
    record's ``rates`` dict reloads in canonical order).
    """
    from repro.obs.export import write_text

    return write_text(path, json.dumps(result.to_dict(), indent=1, sort_keys=True))


def load_campaign(path: str | Path) -> CampaignResult:
    """Load a campaign previously written by :func:`save_campaign`.

    A truncated or garbage file raises the typed
    :class:`~repro.errors.SnapshotCorruptError` (a ``ValueError``
    subclass); an unsupported-but-parseable format stays a plain
    ``ValueError``.
    """
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotCorruptError(f"{path}: not a campaign file ({exc})") from exc
    try:
        return campaign_from_dict(doc)
    except (KeyError, TypeError, AttributeError) as exc:
        raise SnapshotCorruptError(f"{path}: malformed campaign document ({exc!r})") from exc


# -- snapshot packing (transport probe; no campaign path ships images) ---------


def _pack_array(a: np.ndarray) -> dict:
    from repro.harness.store import crc32
    from repro.obs import registry

    data = a.tobytes()
    if (reg := registry()) is not None:
        # Packing copies; the zero-copy regression tests assert this
        # stays 0 on every campaign path, serial and pooled alike.
        reg.counter("serialize.bytes_copied", unit="bytes").inc(len(data))
    return {"dtype": str(a.dtype), "shape": list(a.shape), "data": data, "crc32": crc32(data)}


def _unpack_array(d: dict) -> np.ndarray:
    from repro.harness.store import crc32

    data = d["data"]
    if crc32(data) != d.get("crc32"):
        raise SnapshotCorruptError(
            f"snapshot array failed its checksum ({len(data)} bytes, dtype {d['dtype']})"
        )
    # Zero-copy: a read-only view over the payload buffer.  Restart only
    # ever *reads* restored state (Application.restore copies it into the
    # app's own arrays), so nothing downstream needs a writable array.
    return np.frombuffer(data, dtype=d["dtype"]).reshape(d["shape"])


def pack_snapshot(snap: Snapshot) -> dict:
    """Flatten a snapshot into plain bytes/dicts for cheap IPC pickling.

    Accepts read-only array views (the golden engine's copy-on-write
    snapshots) — packing only reads, and the one unavoidable copy
    (``tobytes`` for the wire) is accounted in ``serialize.bytes_copied``.
    """
    return {
        "index": snap.index,
        "counter": snap.counter,
        "iteration": snap.iteration,
        "region": snap.region,
        "nvm_state": {k: _pack_array(v) for k, v in snap.nvm_state.items()},
        "rates": {k: float(v) for k, v in snap.rates.items()},
        "consistent_state": (
            None
            if snap.consistent_state is None
            else {k: _pack_array(v) for k, v in snap.consistent_state.items()}
        ),
    }


def unpack_snapshot(d: dict) -> Snapshot:
    """Rebuild a snapshot from :func:`pack_snapshot`'s payload.

    Truncated buffers, checksum mismatches or missing keys raise the
    typed :class:`~repro.errors.SnapshotCorruptError`, so payload
    corruption is never mistaken for an application failure.
    """
    try:
        return Snapshot(
            index=int(d["index"]),
            counter=int(d["counter"]),
            iteration=int(d["iteration"]),
            region=d["region"],
            nvm_state={k: _unpack_array(v) for k, v in d["nvm_state"].items()},
            rates=d["rates"],
            consistent_state=(
                None
                if d["consistent_state"] is None
                else {k: _unpack_array(v) for k, v in d["consistent_state"].items()}
            ),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SnapshotCorruptError(f"corrupt snapshot payload: {exc!r}") from exc
