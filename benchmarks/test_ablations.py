"""Ablations of EasyCrash's design choices (DESIGN.md Sec. 5).

Each ablation isolates one ingredient of the design and shows what it
buys: flush-frequency interpolation (Eq. 5), correlation-based object
selection, the crash-time distribution, and the flush instruction choice
(CLWB vs CLFLUSHOPT).
"""

import numpy as np
import pytest
from conftest import emit

from repro.harness.experiments import ExperimentReport
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.plan import PersistencePlan
from repro.perf.costmodel import CostModel
from repro.util.rng import derive_rng


def test_ablation_flush_frequency(benchmark, ctx, results_dir):
    """Eq. 5's frequency dimension: recomputability vs flush frequency
    should interpolate between the baseline and the every-iteration
    maximum — the knob the knapsack uses under tight budgets."""

    def run():
        rows = []
        name = "kmeans"
        crit = list(ctx.plan_report(name).critical_objects)
        base = ctx.plan_report(name).baseline_campaign.recomputability()
        maxr = None
        for x in (1, 2, 4, 8):
            camp = ctx.campaign(
                name,
                PersistencePlan.at_loop_end(crit, frequency=x),
                f"abl-freq-{x}",
            )
            r = camp.recomputability()
            if x == 1:
                maxr = r
            predicted = (maxr - base) / x + base
            rows.append([f"every {x} iteration(s)", r, predicted])
        rows.append(["no flushing", base, base])
        return ExperimentReport(
            "Ablation frequency",
            "kmeans recomputability vs flush frequency (measured vs Eq. 5)",
            ["Frequency", "Measured", "Eq. 5 prediction"],
            rows,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(report, results_dir)
    measured = [row[1] for row in report.rows[:4]]
    assert measured == sorted(measured, reverse=True)  # monotone in x
    # Eq. 5 is a usable approximation (the paper relies on it).
    for row in report.rows[:4]:
        assert abs(row[1] - row[2]) < 0.30


def test_ablation_selection_strategy(benchmark, ctx, results_dir):
    """Correlation-based selection vs naive strategies at equal effort."""

    def run():
        name = "IS"
        report = ctx.plan_report(name)
        crit = list(report.critical_objects)
        heap = ctx.factory(name).make(None).ws.heap
        candidates = [o.name for o in heap.candidates()]
        rng = derive_rng(7, "ablation-selection")
        random_pick = list(rng.choice(candidates, size=min(len(crit), len(candidates)), replace=False))
        largest = sorted(candidates, key=lambda n: heap.objects[n].nbytes, reverse=True)[: len(crit)]
        rows = []
        for label, objs in (
            ("EasyCrash selection", crit),
            ("random objects", random_pick),
            ("largest objects", largest),
        ):
            camp = ctx.campaign(
                name, PersistencePlan.at_loop_end(objs), f"abl-sel-{label}"
            )
            size = sum(heap.objects[n].nbytes for n in objs)
            rows.append([label, ", ".join(objs), size, camp.recomputability()])
        return ExperimentReport(
            "Ablation selection",
            "IS recomputability: what you flush matters more than how much",
            ["Strategy", "Objects", "Bytes flushed/op", "Recomputability"],
            rows,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(report, results_dir)
    by = {r[0]: r for r in report.rows}
    ec = by["EasyCrash selection"]
    largest = by["largest objects"]
    # The selected (tiny) objects beat the largest-objects heuristic,
    # which burns orders of magnitude more flush traffic.
    assert ec[3] >= largest[3] - 0.05
    assert ec[2] < largest[2]


def test_ablation_crash_distribution(benchmark, ctx, results_dir):
    """Sensitivity of measured recomputability to the crash-time
    distribution (the paper assumes discrete uniform)."""

    def run():
        name = "MG"
        rows = []
        for dist in ("uniform", "early", "late"):
            cfg = CampaignConfig(
                n_tests=ctx.settings.n_tests,
                seed=ctx.settings.seed + 1,
                plan=PersistencePlan.none(),
                distribution=dist,
            )
            camp = run_campaign(ctx.factory(name), cfg)
            rows.append([dist, camp.recomputability()])
        return ExperimentReport(
            "Ablation crash distribution",
            "MG baseline recomputability under different crash-time distributions",
            ["Distribution", "Recomputability"],
            rows,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(report, results_dir)
    vals = {r[0]: r[1] for r in report.rows}
    assert all(0.0 <= v <= 1.0 for v in vals.values())


def test_ablation_flush_instruction(benchmark, ctx, results_dir):
    """CLWB (retain line) vs CLFLUSHOPT (invalidate): same NVM image,
    different cost — the reason the paper's estimator doubles CLFLUSH
    costs and modern persistence code prefers CLWB."""

    def run():
        name = "MG"
        crit = list(ctx.plan_report(name).critical_objects)
        cm = CostModel()
        baseline = ctx.measure(name, ctx.plan_baseline_no_iterator(), "t4-baseline")
        rows = []
        for label, invalidate in (("CLWB", False), ("CLFLUSHOPT", True)):
            plan = PersistencePlan(
                objects=tuple(crit), at_iteration_end=True, invalidate=invalidate
            )
            stats = ctx.measure(name, plan, f"abl-instr-{label}")
            camp = ctx.campaign(name, plan, f"abl-instr-{label}")
            rows.append(
                [
                    label,
                    camp.recomputability(),
                    cm.normalized_time(stats.memory, baseline.memory, invalidate=invalidate),
                    stats.memory.nvm_fills,
                ]
            )
        return ExperimentReport(
            "Ablation flush instruction",
            "MG under CLWB vs CLFLUSHOPT persistence",
            ["Instruction", "Recomputability", "Norm. time", "NVM fills"],
            rows,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(report, results_dir)
    by = {r[0]: r for r in report.rows}
    # Equal protection...
    assert abs(by["CLWB"][1] - by["CLFLUSHOPT"][1]) < 0.15
    # ...but invalidation costs more (reloads -> more fills, more time).
    assert by["CLFLUSHOPT"][3] >= by["CLWB"][3]
    assert by["CLFLUSHOPT"][2] >= by["CLWB"][2] - 1e-9


def test_ablation_crash_model(benchmark, ctx, results_dir):
    """Persistence-domain ablation: how much of the paper's inconsistency
    is the whole-cache-loss assumption itself.  Survivor overlays
    guarantee eadr <= adr <= whole-cache-loss exactly (per crash point
    and per object), so the aggregate table must be monotone too."""

    def run():
        models = ("whole-cache-loss", "adr", "eadr", "torn")
        rows = []
        for name in ("EP", "kmeans", "MG"):
            rates = {}
            recomp = {}
            for model in models:
                cfg = CampaignConfig(
                    n_tests=ctx.settings.n_tests,
                    seed=ctx.settings.seed + 1,
                    plan=PersistencePlan.none(),
                    crash_model=model,
                )
                camp = run_campaign(ctx.factory(name), cfg)
                per_obj = camp.mean_object_rates()
                rates[model] = sum(per_obj.values()) / max(1, len(per_obj))
                recomp[model] = camp.recomputability()
            rows.append(
                [name]
                + [rates[m] for m in models]
                + [recomp["whole-cache-loss"], recomp["eadr"]]
            )
        return ExperimentReport(
            "Ablation crash model",
            "mean inconsistent rate by crash model (no persistence plan)",
            [
                "App",
                "whole-cache-loss",
                "adr",
                "eadr",
                "torn",
                "Recomp (wcl)",
                "Recomp (eadr)",
            ],
            rows,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(report, results_dir)
    for row in report.rows:
        app, wcl, adr, eadr, torn = row[0], row[1], row[2], row[3], row[4]
        assert 0.0 <= eadr <= adr <= wcl <= 1.0, (app, eadr, adr, wcl)
        assert torn <= wcl + 1e-12, (app, torn, wcl)
        # A surviving persistence domain cannot hurt recomputability.
        assert row[6] >= row[5] - 1e-12, (app, row[5], row[6])


def test_recovery_mix(benchmark, ctx, results_dir):
    """Multi-node recovery mix: how often a crashed node restarts from its
    NVM image (acceptance S1/S2) vs rolling the cluster back to the last
    checkpoint, per burst size and crash model.  MG is the interesting
    application here — its measured responses genuinely mix S1 and S4, so
    the orchestrator exercises both paths."""
    from repro.cluster.emulator import run_cluster_campaign
    from repro.system.efficiency import SystemParams, efficiency_measured_multinode
    from repro.system.mtbf import HOUR

    def run():
        name = "MG"
        nodes = 4
        p = SystemParams(mtbf_s=12 * HOUR, t_chk_s=320.0)
        rows = []
        for model in ("whole-cache-loss", "adr", "eadr"):
            cfg = CampaignConfig(
                n_tests=ctx.settings.n_tests,
                seed=ctx.settings.seed + 1,
                plan=PersistencePlan.none(),
                crash_model=model,
                nodes=nodes,
                correlation=0.3,
            )
            result = run_cluster_campaign(ctx.factory(name), cfg)
            mix = result.log.mix()
            decided = mix["nvm_restart"] + mix["rollback"]
            r = mix["nvm_restart"] / decided if decided else 0.0
            eff = efficiency_measured_multinode(p, mix, 0.015, nodes)
            for k, row in result.log.by_burst_size().items():
                rows.append(
                    [model, k, row["bursts"], row["nvm_restart"],
                     row["rollback"], row["peers_rewound"], "", ""]
                )
            rows.append(
                [model, "all", len(result.log.bursts), mix["nvm_restart"],
                 mix["rollback"], sum(b.peers_rewound for b in result.log.bursts),
                 r, eff]
            )
        return ExperimentReport(
            "Recovery mix",
            f"MG on {nodes} emulated nodes, correlation 0.3: NVM restart vs "
            "checkpoint rollback per burst size and crash model",
            ["Crash model", "Burst size", "Bursts", "NVM restarts",
             "Rollbacks", "Peers rewound", "Measured R", "Efficiency"],
            rows,
            notes="R = NVM-restart fraction of recovery decisions; efficiency "
            "via efficiency_measured_multinode (T_chk=320 s, MTBF 12 h, ts=1.5%)",
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(report, results_dir)
    totals = {r[0]: r for r in report.rows if r[1] == "all"}
    assert set(totals) == {"whole-cache-loss", "adr", "eadr"}
    for model, row in totals.items():
        # every victim got exactly one decision, and MG mixes both kinds
        assert row[3] + row[4] > 0, model
        assert 0.0 <= row[6] <= 1.0 and 0.0 <= row[7] <= 1.0, model
    assert totals["whole-cache-loss"][4] > 0  # rollbacks happen under wcl
    # A friendlier persistence domain can only help the restart fraction.
    assert totals["eadr"][6] >= totals["whole-cache-loss"][6] - 1e-12
