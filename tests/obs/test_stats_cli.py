"""``repro campaign --stats`` and ``repro stats``."""

import pytest

from repro.cli import main
from repro.obs import metrics
from repro.obs.export import SCHEMA_FIELDS, load_bench, read_jsonl


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rec(metric, value, unit="tests/s"):
    return {"metric": metric, "value": value, "unit": unit, "scale": "quick", "git_sha": "abc"}


@pytest.fixture()
def bench_file(tmp_path, capsys):
    """A real bench.json from a small campaign (the acceptance command)."""
    target = tmp_path / "out.json"
    code, out = run_cli(
        capsys, "campaign", "kmeans", "--tests", "8", "--seed", "3",
        "--stats", str(target),
    )
    assert code == 0
    assert "bench metrics" in out
    return target


# -- campaign --stats ----------------------------------------------------------


def test_campaign_stats_emits_valid_bench_json(bench_file):
    records = load_bench(bench_file)  # validates the schema
    assert all(set(r) == set(SCHEMA_FIELDS) for r in records)
    by_name = {r["metric"]: r["value"] for r in records}
    # Nonzero cache-level metrics from the memsim hierarchy...
    assert any(
        name.startswith("memsim.") and value
        for name, value in by_name.items()
    )
    # ...and nonzero span totals from the campaign pipeline.
    for span in ("span.campaign.total_s", "span.instrumented_run.total_s"):
        assert by_name[span] > 0
    assert by_name["campaign.tests"] == 8
    assert by_name["campaign.throughput"] > 0


def test_campaign_stats_writes_trace_jsonl(bench_file):
    trace = bench_file.with_suffix(".trace.jsonl")
    rows = read_jsonl(trace)
    assert rows, "trace JSONL must not be empty"
    names = {row["name"] for row in rows}
    assert "campaign" in names
    assert any(name.startswith("region:") for name in names)
    assert all({"index", "name", "start", "duration", "parent"} <= set(row) for row in rows)


def test_campaign_stats_leaves_the_gate_off_afterwards(bench_file):
    assert metrics.registry() is None


def test_campaign_without_stats_allocates_nothing(capsys, monkeypatch):
    monkeypatch.delenv(metrics.ENV_VAR, raising=False)
    metrics.reset()
    before = (metrics.Metric.allocations, metrics.MetricRegistry.allocations)
    code, _ = run_cli(capsys, "campaign", "kmeans", "--tests", "4")
    assert code == 0
    assert (metrics.Metric.allocations, metrics.MetricRegistry.allocations) == before


# -- repro stats ---------------------------------------------------------------


def test_stats_dump(bench_file, capsys):
    code, out = run_cli(capsys, "stats", str(bench_file))
    assert code == 0
    assert "campaign.throughput" in out


def test_stats_unreadable_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run_cli(capsys, "stats", str(bad))
    assert code == 2
    code, _ = run_cli(capsys, "stats", str(tmp_path / "absent.json"))
    assert code == 2
