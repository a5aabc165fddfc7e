"""The six workloads and the end-to-end measurement of one run.

A *pass* executes a workload's fixed campaign list once with one seed and
returns the record sets it produced as a plain document::

    {"campaigns": {label: [record dict, ...]}, "extra": {...}}

A *run* is set-up (``SETUP_REPEATS`` untimed passes over the workload's
small warm-up list, plus the serial reference where another path is
measured) followed by timed passes on seeds ``S, S+1, ...`` until
``seconds`` have elapsed.  Everything is taken from outside: the program
only ever receives the generated ``CampaignConfig``s / CLI arguments.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from common import BENCH_DIR, SPEC, canonical, cpu_seconds, digest, platform_probe, scratch

from repro.apps.registry import get_factory
from repro.cluster import run_cluster_campaign
from repro.harness.cache import ArtifactCache
from repro.harness.context import ExperimentContext, ExperimentSettings
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.serialize import plan_to_dict, record_to_dict, run_stats_to_dict

# -- sizes (retuned once for a 2-core sandbox; see README "Sizing") -----------

#: Restore + recompute + verify dominate: a 64 KB image and a 7.4 MB image.
MIX_RESTART = (("EP", 40), ("IS", 30))
#: The instrumented recording run dominates; few trials.
MIX_RECORD = (("CG", 16), ("FT", 20))
#: (apps, n_tests, planner_tests, refinement_tests) of the figure session.
PLAN_SESSION = (("botsspar", "kmeans"), 12, 16, 8)

#: Warm-up lists: same code paths and image sizes, a fraction of the trials.
WARM_RESTART = (("EP", 8), ("IS", 6))
WARM_RECORD = (("FT", 6),)  # CG records for 1.9 s whatever the trial count: too slow to repeat
WARM_CLUSTER = (("EP", 8),)  # four recordings per campaign make IS too slow to repeat
WARM_SERVE = (("IS", 6),)  # three interpreter starts per campaign dominate a served warm-up
WARM_PLAN = (("botsspar",), 6, 8, 6)

#: Sizes the benchmark's own tests use (<= 6 trials per campaign).
TINY_RESTART = (("EP", 4), ("IS", 3))
TINY_RECORD = (("FT", 4),)
TINY_PLAN = (("botsspar",), 6, 6, 6)

SETUP_REPEATS = 3  # set-up units per run; setup_s uses their median
WARMUP_SEED_OFFSET = 1000
CLUSTER = {"nodes": 4, "correlation": 0.4}
SERVE_WORKERS = 2
SERVE_TIMEOUT_S = 90.0


def fresh(app: str):
    """A factory without a cached golden run: every pass pays for its own."""
    return get_factory(app).with_params()


def _records(result) -> list[dict]:
    return [record_to_dict(r) for r in result.records]


# -- the five ways a campaign list is executed ---------------------------------


def _run_local(campaigns, seed: int, how: Callable[[str], dict]):
    doc = {
        app: _records(run_campaign(fresh(app), CampaignConfig(n_tests=n, seed=seed), **how(app)))
        for app, n in campaigns
    }
    return {"campaigns": doc, "extra": {}}, []


def run_serial(campaigns, seed: int, tmp: Path):
    return _run_local(campaigns, seed, lambda app: {"jobs": 1})


def run_jobs2(campaigns, seed: int, tmp: Path):
    return _run_local(campaigns, seed, lambda app: {"jobs": 2, "journal": tmp / f"{app}.jsonl"})


def run_nodes4(campaigns, seed: int, tmp: Path):
    doc: dict = {"campaigns": {}, "extra": {}}
    for app, n in campaigns:
        cfg = CampaignConfig(n_tests=n, seed=seed, **CLUSTER)
        result = run_cluster_campaign(fresh(app), cfg, jobs=1, journal=tmp / f"{app}.jsonl").to_dict()
        for node, records in result.pop("records").items():
            doc["campaigns"][f"{app}/node{node}"] = records
        doc["extra"][app] = result  # burst schedule + recovery log
    return doc, []


def serve_campaign(app: str, n: int, seed: int, workdir: Path) -> tuple[list[dict], list[str]]:
    """One campaign through real ``repro serve`` + ``repro work`` processes.

    Paths are relative to ``workdir`` so the Unix socket path stays short
    wherever the checkout lives.  Stragglers are killed on timeout and
    every child is waited for; whatever records did not arrive count as
    failed upstream."""
    workdir.mkdir(parents=True, exist_ok=True)
    cli = [sys.executable, "-m", "repro.cli"]
    serve = cli + ["serve", app, "--tests", str(n), "--seed", str(seed),
                   "--socket", "s.sock", "--journal", "j.jsonl", "--save", "out.json"]
    problems: list[str] = []
    with open(workdir / "log.txt", "wb") as log:
        procs = [subprocess.Popen(serve, cwd=workdir, stdout=log, stderr=subprocess.STDOUT)]
        procs += [
            subprocess.Popen(cli + ["work", "--socket", "s.sock"], cwd=workdir, stdout=log,
                             stderr=subprocess.STDOUT)
            for _ in range(SERVE_WORKERS)
        ]
        deadline = time.monotonic() + SERVE_TIMEOUT_S
        try:
            for proc in procs:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            problems.append(f"serve {app}: timed out after {SERVE_TIMEOUT_S:.0f}s")
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
    codes = [proc.returncode for proc in procs]
    if any(codes):
        tail = (workdir / "log.txt").read_text(errors="replace")[-400:]
        problems.append(f"serve {app}: exit codes {codes}: {tail}")
    saved = workdir / "out.json"
    records = json.loads(saved.read_text())["records"] if saved.exists() else []
    return records, problems


def run_serve(campaigns, seed: int, tmp: Path):
    doc: dict = {}
    problems: list[str] = []
    for app, n in campaigns:
        doc[app], trouble = serve_campaign(app, n, seed, tmp / app)
        problems += trouble
    return {"campaigns": doc, "extra": {}}, problems


def plan_session(size, seed: int, cache_dir: Path):
    """One figure session: per app the no-plan campaign, the EasyCrash
    planning workflow, its validation campaign and the production-run
    measurement.  Returns the document and the context's cache stats."""
    apps, n_tests, planner_tests, refinement_tests = size
    settings = ExperimentSettings(
        n_tests=n_tests, planner_tests=planner_tests, refinement_tests=refinement_tests, seed=seed
    )
    ctx = ExperimentContext(settings, cache=ArtifactCache(cache_dir), jobs=1)
    doc: dict = {"campaigns": {}, "extra": {}}
    for app in apps:
        none = ctx.campaign(app, ctx.plan_none(), "none")
        report = ctx.plan_report(app)
        recomputability = ctx.easycrash_recomputability(app)
        stats = ctx.measure(app, ctx.plan_easycrash(app), "easycrash")
        reachable = {
            "none": none,
            "plan.baseline": report.baseline_campaign,
            "plan.max": report.max_campaign,
            "plan.loop": report.loop_campaign,
            "easycrash": ctx.campaign(app, ctx.plan_easycrash(app), "easycrash"),
        }
        for label, result in reachable.items():
            if result is not None:
                doc["campaigns"][f"{app}/{label}"] = _records(result)
        doc["extra"][app] = {
            "critical": list(report.critical_objects),
            "plan": plan_to_dict(report.plan),
            "recomputability": recomputability,
            "measure": run_stats_to_dict(stats),
        }
    return doc, ctx.cache_stats()


def run_plan_session(size, seed: int, tmp: Path):
    """Cold session, then a fresh context replaying it from the same cache."""
    cold, _ = plan_session(size, seed, tmp / "cache")
    warm, warm_stats = plan_session(size, seed, tmp / "cache")
    problems = []
    if canonical(warm) != canonical(cold):
        problems.append("plan-session: warm replay differs from the cold session")
    recomputed = {k: v for k, v in warm_stats.items() if k.endswith("_computations") and v}
    if recomputed:
        problems.append(f"plan-session: warm replay recomputed {recomputed}")
    return cold, problems


# -- the workload table ----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    execute: Callable  # (size, seed, tmp) -> (document, problems)
    full: tuple
    warm: tuple
    tiny: tuple
    #: serial path the warm-up result is compared with, record for record
    reference: Callable | None = None
    #: trials are whatever the session's outputs reach, not a requested count
    counts_own_trials: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial-restart", run_serial, MIX_RESTART, WARM_RESTART, TINY_RESTART),
        Workload("serial-record", run_serial, MIX_RECORD, WARM_RECORD, TINY_RECORD),
        Workload("jobs2-fanout", run_jobs2, MIX_RESTART, WARM_RESTART, TINY_RESTART, run_serial),
        Workload("nodes4-cluster", run_nodes4, MIX_RESTART, WARM_CLUSTER, TINY_RESTART),
        Workload("serve-2workers", run_serve, MIX_RESTART, WARM_SERVE, TINY_RESTART, run_serial),
        Workload("plan-session", run_plan_session, PLAN_SESSION, WARM_PLAN, TINY_PLAN, counts_own_trials=True),
    )
}
assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]], "BENCHMARK.json and the workload table drifted apart"


def tally(doc: dict) -> tuple[int, int]:
    """(sampled crash trials delivered, trials the harness failed)."""
    delivered = failed = 0
    for records in doc["campaigns"].values():
        for rec in records:
            weight = int(rec.get("weight", 1))
            delivered += weight
            if rec["response"] == "FAILED":
                failed += weight
    return delivered, failed


def load_expected() -> dict:
    """Committed seed-0.. digests, or nothing on a platform whose
    floating point differs from the one they were generated on."""
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    if expected.get("platform_probe") != platform_probe():
        print("bench: platform arithmetic differs from expected.json's; committed digests not enforced")
        return {}
    return expected["digests"]


@dataclass
class Pass:
    seed: int
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    digest: str


def run(name: str, seed: int, seconds: float, process_start: float, tiny: bool = False) -> dict:
    """Set up, measure for ``seconds``, check; returns the run's result."""
    wl = WORKLOADS[name]
    full, warm = (wl.tiny, wl.tiny) if tiny else (wl.full, wl.warm)
    problems: list[str] = []

    # -- set-up: repeated warm-up units, then the cross-path reference --
    before_units = time.perf_counter() - process_start
    warm_seed = seed + WARMUP_SEED_OFFSET
    unit_times, unit_digests = [], []
    for _ in range(1 if tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        with scratch() as tmp:
            doc, trouble = wl.execute(warm, warm_seed, tmp)
        unit_times.append(time.perf_counter() - t0)
        unit_digests.append(digest(doc))
        problems += trouble
        gc.collect()
    if len(set(unit_digests)) > 1:
        problems.append(f"{name}: warm-up passes on one seed did not replay identically")
    reference_s = 0.0
    if wl.reference is not None:
        t0 = time.perf_counter()
        with scratch() as tmp:
            ref, _ = wl.reference(warm, warm_seed, tmp)
        reference_s = time.perf_counter() - t0
        if digest(ref) != unit_digests[0]:
            problems.append(f"{name}: records differ from the serial run_campaign reference")
        gc.collect()
    setup_s = before_units + statistics.median(unit_times) + reference_s

    # -- timed passes ------------------------------------------------------
    expected = {} if tiny else load_expected().get(name, {})
    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        pass_seed = seed + len(passes)
        with scratch() as tmp:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            doc, trouble = wl.execute(full, pass_seed, tmp)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        problems += trouble
        delivered, failed = tally(doc)
        attempted = delivered if wl.counts_own_trials else sum(n for _app, n in full)
        failed += max(0, attempted - delivered)
        got = digest(doc)
        if expected.get(str(pass_seed), got) != got:
            problems.append(f"{name}: seed {pass_seed} record set differs from expected.json")
        passes.append(Pass(pass_seed, wall, cpu, attempted, failed, got))
        # Cyclic garbage of a pass (runtime <-> store <-> records) is ~200 MB;
        # left to the collector it makes the next pass fault in fresh pages,
        # which on this VM costs more than the pass itself.
        del doc
        gc.collect()
        if time.perf_counter() - begin >= seconds:
            break

    attempted = sum(p.attempted for p in passes)
    failed = attempted if problems else sum(p.failed for p in passes)
    walls = [p.wall_s for p in passes]
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    values = {
        "trials_per_s": statistics.median(p.attempted / p.wall_s for p in passes),
        "cpu_s_per_trial": sum(p.cpu_s for p in passes) / attempted,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": setup_s,
    }
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(values) == set(units), "BENCHMARK.json and the end-to-end metrics drifted apart"
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "problems": problems,
        "result_digest": passes[0].digest,
        "pass_digests": {str(p.seed): p.digest for p in passes},
        "pass_wall_s": {"median": statistics.median(walls), "min": min(walls), "max": max(walls), "n": len(walls)},
        "setup_unit_s": unit_times,
        "exact": {},
    }
