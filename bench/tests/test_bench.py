"""The benchmark's own tests: tiny sizes (<= 6 trials per campaign, one pass)."""

import dataclasses
import functools
import json
import math
import re
import time

import pytest

import common
import compare
import layers
import workloads

SPEC = common.SPEC
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name: str) -> dict:
    return workloads.run(name, seed=3, seconds=0, process_start=time.perf_counter(), tiny=True)


def assert_emits(result: dict, declared: list[dict]) -> None:
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == units[name] != ""


def test_benchmark_json_meets_the_contract():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert sorted(w) == ["name", "why"] and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"] and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    names = WORKLOAD_NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) < 64 * 1024


def test_tables_cannot_drift_from_benchmark_json():
    assert list(workloads.WORKLOADS) == WORKLOAD_NAMES
    assert set(layers.EXACT) <= {m["name"] for m in SPEC["per_layer"]}


def test_restart_paths_share_their_expected_digests():
    digests = json.loads((common.BENCH_DIR / "expected.json").read_text())["digests"]
    assert sorted(digests) == sorted(WORKLOAD_NAMES)
    assert digests["serial-restart"] == digests["jobs2-fanout"] == digests["serve-2workers"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_emits_every_end_to_end_metric_once(name):
    result = tiny_run(name)
    assert result["problems"] == [] and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and result["pass_wall_s"]["n"] == 1
    assert_emits(result, SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric_once(name):
    result = layers.run_traced(name, seed=3, tiny=True)
    assert result["problems"] == [] and result["correct"]
    assert_emits(result, SPEC["per_layer"])
    assert sorted(result["exact"]) == sorted(layers.EXACT)
    spans = [json.loads(line) for line in (common.OUT_DIR / "trace.jsonl").read_text().splitlines()]
    assert len(spans) == result["spans"]
    assert all({"name", "start", "end", "parent", "workload", "seed"} <= set(s) for s in spans)


def corrupting(execute, change):
    """The workload's executor with one record of every pass damaged."""

    def wrapper(size, seed, tmp):
        doc, problems = execute(size, seed, tmp)
        change(next(iter(doc["campaigns"].values()))[0])
        return doc, problems

    return wrapper


def test_failed_record_fails_the_run_and_the_exit_status(monkeypatch):
    import run

    wl = workloads.WORKLOADS["serial-restart"]
    broken = corrupting(wl.execute, lambda rec: rec.update(response="FAILED"))
    monkeypatch.setitem(workloads.WORKLOADS, wl.name, dataclasses.replace(wl, execute=broken))
    result = tiny_run(wl.name)
    assert result["failed"] >= 1 and result["failed_share"] > 0 and not result["correct"]
    monkeypatch.setattr(workloads, "run", functools.partial(workloads.run, tiny=True))
    assert run.main(["--workload", wl.name, "--seconds", "0"]) != 0


def test_record_differing_from_the_serial_reference_fails_the_run(monkeypatch):
    wl = workloads.WORKLOADS["jobs2-fanout"]
    broken = corrupting(wl.execute, lambda rec: rec.update(iteration=rec["iteration"] + 1))
    monkeypatch.setitem(workloads.WORKLOADS, wl.name, dataclasses.replace(wl, execute=broken))
    result = tiny_run(wl.name)
    assert any("serial run_campaign reference" in p for p in result["problems"])
    assert result["failed"] == result["attempted"] and not result["correct"]


def synthetic(trials_per_s: list[float], exact: int = 7) -> dict:
    def metrics(v):
        out = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        out["trials_per_s"]["value"] = v
        return out

    runs = [
        {"workload": "serial-restart", "seed": k, "trace": 0, "failed_share": 0.0, "metrics": metrics(v),
         "exact": {}, "pass_digests": {str(k): "d"}}
        for k, v in enumerate(trials_per_s)
    ]
    runs.append({"workload": "serial-restart", "seed": 0, "trace": 1, "failed_share": 0.0, "metrics": {},
                 "exact": {"apps.recompute_iterations": exact}})
    return {"runs": runs, "claim": None}


def test_compare_flags_a_slowdown_beyond_the_bound():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "trials_per_s")
    base = [100.0, 100.5, 99.5, 100.2, 99.8]
    lines, bad = compare.compare(synthetic(base), synthetic([v * (1 - 1.2 * bound) for v in base]))
    assert bad and any("trials_per_s" in line and line.endswith("worse") for line in lines)
    lines, bad = compare.compare(synthetic(base), synthetic([v * (1 - 0.5 * bound) for v in base]))
    assert not bad and not any(line.endswith(("worse", "unresolved")) for line in lines)


def test_compare_reports_wide_spread_as_unresolved_and_counts_by_equality():
    noisy = [100.0, 60.0, 140.0, 80.0, 120.0]
    lines, bad = compare.compare(synthetic(noisy), synthetic([v * 0.8 for v in noisy]))
    assert not bad and any("trials_per_s" in line and line.endswith("unresolved") for line in lines)
    lines, bad = compare.compare(synthetic([100.0]), synthetic([100.0], exact=8))
    assert bad and any(line.startswith("MISMATCH") for line in lines)
