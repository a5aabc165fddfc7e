"""bench.json schema and the shared artifact writer."""

import json
from pathlib import Path

import pytest

from repro.obs import metrics
from repro.obs.export import (
    SCHEMA_FIELDS,
    bench_records,
    load_bench,
    read_jsonl,
    render_bench,
    validate_bench,
    write_bench,
    write_jsonl,
    write_text,
)


def rec(metric, value, unit="tests/s", scale="quick", git_sha="abc1234"):
    return {"metric": metric, "value": value, "unit": unit, "scale": scale, "git_sha": git_sha}


# -- record assembly -----------------------------------------------------------


def test_bench_records_cover_all_metric_kinds():
    reg = metrics.MetricRegistry()
    reg.counter("c", unit="blocks").inc(7)
    reg.gauge("g", unit="ratio").set(0.5)
    h = reg.histogram("h", unit="blocks")
    h.observe(2)
    h.observe(6)
    with reg.tracer.span("phase"):
        pass
    records = validate_bench(bench_records(reg, scale="quick", sha="abc"))
    by_name = {r["metric"]: r for r in records}
    assert by_name["c"]["value"] == 7
    assert by_name["g"]["value"] == 0.5
    assert by_name["h.count"]["value"] == 2
    assert by_name["h.mean"]["value"] == 4
    assert by_name["h.max"]["value"] == 6
    assert by_name["span.phase.count"]["value"] == 1
    assert by_name["span.phase.total_s"]["unit"] == "s"
    assert all(r["scale"] == "quick" and r["git_sha"] == "abc" for r in records)


def test_bench_records_derive_throughputs():
    reg = metrics.MetricRegistry()
    reg.counter("campaign.tests", unit="tests").inc(40)
    reg.counter("runtime.accesses", unit="blocks").inc(1000)
    reg.tracer.record("campaign", 0.0, 2.0)
    reg.tracer.record("instrumented_run", 0.0, 4.0)
    by_name = {r["metric"]: r for r in bench_records(reg)}
    assert by_name["campaign.throughput"]["value"] == pytest.approx(20.0)
    assert by_name["campaign.throughput"]["unit"] == "tests/s"
    assert by_name["sim.throughput"]["value"] == pytest.approx(250.0)
    assert by_name["sim.throughput"]["unit"] == "blocks/s"


# -- schema validation ---------------------------------------------------------


def test_validate_rejects_non_array():
    with pytest.raises(ValueError, match="array"):
        validate_bench({"metric": "x"})


def test_validate_rejects_missing_field():
    bad = rec("x", 1.0)
    del bad["unit"]
    with pytest.raises(ValueError, match="unit"):
        validate_bench([bad])


def test_validate_rejects_non_numeric_value():
    with pytest.raises(ValueError, match="number"):
        validate_bench([rec("x", "fast")])
    with pytest.raises(ValueError, match="number"):
        validate_bench([rec("x", True)])


def test_load_bench_round_trip(tmp_path):
    path = write_bench(tmp_path / "bench.json", [rec("x", 1.5)])
    assert load_bench(path) == [rec("x", 1.5)]


# -- the one writer ------------------------------------------------------------


def test_write_text_creates_parents_and_normalizes_newline(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    write_text(path, "hello\n\n\n")
    raw = path.read_bytes()
    assert raw == b"hello\n"  # utf-8, exactly one trailing newline


def test_write_text_utf8(tmp_path):
    path = write_text(tmp_path / "out.txt", "μs — ok")
    assert path.read_text(encoding="utf-8") == "μs — ok\n"


def test_jsonl_round_trip(tmp_path):
    rows = [{"a": 1}, {"b": [1, 2]}, {"c": "x"}]
    path = write_jsonl(tmp_path / "trace.jsonl", rows)
    assert read_jsonl(path) == rows
    assert path.read_text(encoding="utf-8").endswith("\n")


def test_jsonl_empty(tmp_path):
    path = write_jsonl(tmp_path / "trace.jsonl", [])
    assert read_jsonl(path) == []


def test_render_bench_lists_every_metric():
    out = render_bench([rec("alpha", 1.0), rec("beta", 2.0)])
    assert "alpha" in out and "beta" in out


# -- one yardstick -------------------------------------------------------------


def test_root_bench_files_are_bench_run_documents():
    """A committed ``BENCH_<sha>.json`` is a ``bench/run.py --out``
    document — no second performance schema at the repo root."""
    root = Path(__file__).resolve().parents[2]
    for path in sorted(root.glob("BENCH_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert set(doc) == {"runs", "claim"}, path.name
        for run in doc["runs"]:
            assert "workload" in run and "metrics" in run, path.name


def test_schema_fields_constant():
    assert SCHEMA_FIELDS == ("metric", "value", "unit", "scale", "git_sha")
    assert set(rec("x", 1.0)) == set(SCHEMA_FIELDS)


def test_bench_json_on_disk_is_pretty_and_newline_terminated(tmp_path):
    path = write_bench(tmp_path / "bench.json", [rec("x", 1.0)])
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and not text.endswith("\n\n")
    # still a plain JSON document: the records live under "payload",
    # beside the integrity header external tools can ignore
    doc = json.loads(text)
    assert doc["payload"] == [rec("x", 1.0)]
    assert "payload_crc32" in doc["__repro_store__"]
