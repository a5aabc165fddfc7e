"""Machine-readable telemetry artifacts: bench.json and JSONL traces.

The exchange format is deliberately tiny — a ``bench.json`` file is one
sealed JSON object (:func:`repro.harness.store.seal_line`),
``{"records": [...], "crc": ...}``, holding flat records::

    {"metric": "campaign.throughput", "value": 41.7, "unit": "tests/s",
     "scale": "quick", "git_sha": "d4b5b51"}

``repro campaign --stats`` writes this schema and ``repro stats FILE``
dumps it.  It is a telemetry dump of one process, not a performance
yardstick: before/after comparisons are ``bench/run.py`` +
``bench/compare.py`` (see ``bench/README.md``).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.metrics import Histogram, MetricRegistry

__all__ = [
    "SCHEMA_FIELDS",
    "git_sha",
    "bench_records",
    "validate_bench",
    "load_bench",
    "write_bench",
    "write_text",
    "write_json",
    "write_jsonl",
    "read_jsonl",
    "render_bench",
]

SCHEMA_FIELDS = ("metric", "value", "unit", "scale", "git_sha")


def git_sha(root: str | Path | None = None) -> str:
    """Short commit id of ``root`` (default: this package's repository);
    ``unknown`` outside a git checkout."""
    cwd = Path(root) if root is not None else Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


# -- record assembly -----------------------------------------------------------


def _record(metric: str, value: float, unit: str, scale: str, sha: str) -> dict[str, object]:
    return {"metric": metric, "value": value, "unit": unit, "scale": scale, "git_sha": sha}


def bench_records(
    reg: MetricRegistry,
    scale: str = "default",
    sha: str | None = None,
) -> list[dict[str, object]]:
    """Flatten a registry (metrics + span aggregates) into bench records.

    Derived rate metrics are appended where their ingredients exist:
    ``campaign.throughput`` (crash tests per second of ``campaign`` span
    time) and ``sim.throughput`` (simulated blocks per second of
    ``instrumented_run`` span time).
    """
    sha = sha if sha is not None else git_sha()
    records: list[dict[str, object]] = []
    for name in reg.names():
        metric = reg.get(name)
        assert metric is not None
        if isinstance(metric, Histogram):
            records.append(_record(f"{name}.count", metric.count, "samples", scale, sha))
            if metric.count:
                records.append(_record(f"{name}.mean", metric.mean, metric.unit, scale, sha))
                records.append(_record(f"{name}.max", metric.max, metric.unit, scale, sha))
        else:
            records.append(_record(name, getattr(metric, "value"), metric.unit, scale, sha))
    for span_name in reg.tracer.names():
        safe = span_name.replace(" ", "_")
        records.append(
            _record(f"span.{safe}.total_s", reg.tracer.total(span_name), "s", scale, sha)
        )
        records.append(
            _record(f"span.{safe}.count", reg.tracer.count(span_name), "spans", scale, sha)
        )
    by_name = {r["metric"]: r["value"] for r in records}
    for rate, numerator, span in (
        ("campaign.throughput", "campaign.tests", "campaign"),
        ("sim.throughput", "runtime.accesses", "instrumented_run"),
    ):
        n = by_name.get(numerator)
        elapsed = reg.tracer.total(span)
        if n and elapsed > 0:
            unit = "tests/s" if rate.startswith("campaign") else "blocks/s"
            records.append(_record(rate, float(n) / elapsed, unit, scale, sha))
    return records


def validate_bench(records: object) -> list[dict[str, object]]:
    """Schema-check a loaded bench document; raises ``ValueError``."""
    if not isinstance(records, list):
        raise ValueError("bench.json must be a JSON array of records")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"record {i}: not an object")
        for key in SCHEMA_FIELDS:
            if key not in rec:
                raise ValueError(f"record {i}: missing field {key!r}")
        if not isinstance(rec["metric"], str) or not rec["metric"]:
            raise ValueError(f"record {i}: 'metric' must be a non-empty string")
        if not isinstance(rec["value"], (int, float)) or isinstance(rec["value"], bool):
            raise ValueError(f"record {i} ({rec['metric']}): 'value' must be a number")
    return records


def load_bench(path: str | Path) -> list[dict[str, object]]:
    """Load a bench document, verifying its seal.

    The ``crc`` written by :func:`write_bench` covers every record — a
    mismatch, or a document that is not a sealed object (a bare array,
    an older layout), raises the typed
    :class:`~repro.errors.SnapshotCorruptError`.
    """
    from repro.harness.store import open_line

    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return validate_bench(open_line(doc).get("records"))


# -- the one writer ------------------------------------------------------------


def write_text(path: str | Path, text: str) -> Path:
    """The repository's artifact writer: parent dirs created, UTF-8,
    exactly one trailing newline, **atomic and durable**.  Text reports,
    JSON twins, bench files and saved campaigns all go through here so
    the guarantees cannot drift apart: it delegates to
    :func:`repro.harness.store.atomic_write_bytes` (fsync'd same-dir temp
    file + ``os.replace`` + directory fsync), so a crash mid-write leaves
    either the old artifact or the new one — never a torn file."""
    from repro.harness.store import atomic_write_bytes

    return atomic_write_bytes(path, (text.rstrip("\n") + "\n").encode("utf-8"))


def write_json(path: str | Path, obj: object) -> Path:
    return write_text(path, json.dumps(obj, indent=1, sort_keys=True))


def write_bench(path: str | Path, records: Sequence[dict[str, object]]) -> Path:
    """Write a bench document: one sealed JSON object ``{"records": [...]}``.

    The file stays a plain JSON document (external tooling reads
    ``"records"``); its ``crc`` field, which :func:`load_bench`
    verifies, covers every record.
    """
    from repro.harness.store import seal_line

    return write_json(path, seal_line({"records": validate_bench(list(records))}))


def write_jsonl(path: str | Path, rows: Iterable[dict[str, object]]) -> Path:
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    return write_text(path, "\n".join(lines) if lines else "")


def read_jsonl(path: str | Path) -> list[dict[str, object]]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


def render_bench(records: Sequence[dict[str, object]]) -> str:
    """Aligned dump of a bench document (``repro stats FILE``)."""
    from repro.util.tables import render_table

    rows = [
        [str(r["metric"]), float(r["value"]), str(r["unit"]), str(r["scale"]), str(r["git_sha"])]
        for r in records
    ]
    return render_table(
        ["Metric", "Value", "Unit", "Scale", "Git"], rows, float_fmt="{:.6g}"
    )
