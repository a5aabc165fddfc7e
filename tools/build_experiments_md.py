"""Assemble EXPERIMENTS.md from the benchmark artifacts.

Run after ``pytest benchmarks/ --benchmark-only``:

    python tools/build_experiments_md.py

Each section pairs the paper's reported numbers with the regenerated
table/figure from ``benchmarks/results/`` and states the shape criteria
the benchmark suite asserts.  Sections carry a provenance line from
their machine-readable JSON twin when one exists.  Performance is not
tracked here: that is ``bench/run.py`` + ``bench/compare.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

RESULTS = ROOT / "benchmarks" / "results"
TARGET = ROOT / "EXPERIMENTS.md"

SECTIONS: list[tuple[str, str, str]] = [
    (
        "table_1",
        "Table 1 — benchmark characteristics",
        "Paper: 11 benchmarks; region counts CG 6 / MG 4 / FT 4 / IS 8 / BT 15 /\n"
        "LU 4 / SP 16 / EP 2 / botsspar 4 / LULESH 4 / kmeans 1; IS's critical\n"
        "object is tiny (4 KB) while FT/botsspar's critical set spans (nearly)\n"
        "all candidates; CG and kmeans restart with extra iterations (9.1 and\n"
        "18.2 on average); IS segfaults; LU/EP fail verification.\n"
        "Shape asserted: region counts match exactly; IS critical object in the\n"
        "KB range; per-app restart-overhead classes reproduce.",
    ),
    (
        "figure_3",
        "Figure 3 — responses after crash and restart (no persistence)",
        "Paper: recomputability differs wildly across applications\n"
        "(Observation 1); SP highest (88%), EP zero, average 28%.\n"
        "Shape asserted: EP/botsspar ~0, SP > 0.5, kmeans S2-dominated,\n"
        "IS fails or interrupts.",
    ),
    (
        "figure_4a",
        "Figure 4a — MG, persisting different data objects",
        "Paper: persisting u lifts MG from 27% to 63%; persisting the other\n"
        "objects barely helps (Observation 2).\n"
        "Shape asserted: u >> none + 0.2; r within 0.2 of u's gain below it.",
    ),
    (
        "figure_4b",
        "Figure 4b — MG, persisting u at different code regions",
        "Paper: one region (R3) stands out with +21%; others < +7%\n"
        "(Observation 3).\n"
        "Shape asserted: max-min across regions > 0.15; best region > none+0.1.",
    ),
    (
        "figure_5",
        "Figure 5 — selection strategies",
        "Paper: persisting the *selected* objects is within 3% of persisting\n"
        "all candidates.\n"
        "Shape asserted: mean gap < 0.10; selection >> no persistence.",
    ),
    (
        "figure_6",
        "Figure 6 — EasyCrash recomputability",
        "Paper: average 28% -> 82% with EasyCrash; 54% of failing crashes\n"
        "transformed; EasyCrash within 5% of the costly best configuration\n"
        "except CG; the physical-machine 'Verified' runs slightly above NVCT.\n"
        "Shape asserted: avg EC > baseline + 0.3 and > 0.6; EC within 0.25 of\n"
        "the best-configuration envelope.\n"
        "Documented divergence: under trajectory-exact (NPB-style)\n"
        "verification, a *consistent copy taken mid-iteration* (the paper's\n"
        "VFY methodology) can be worse than a flushed iteration boundary, so\n"
        "our VFY column sits below EC for the replay-exact apps rather than\n"
        "slightly above as in the paper.",
    ),
    (
        "table_4",
        "Table 4 — runtime overhead of persistence",
        "Paper: EasyCrash 1.5% average overhead; persisting all candidates\n"
        "every iteration 19%; the best-recomputability configuration 35%.\n"
        "Shape asserted: EC < 6% average and below both alternatives; every\n"
        "app under its ts bound (with modeling slack).",
    ),
    (
        "figure_7",
        "Figure 7 — emulated NVM (Quartz-style)",
        "Paper: EasyCrash < 9% overhead (2.3% avg) on all four configurations;\n"
        "the no-selection baseline suffers 48%/62% on 4x/8x latency and\n"
        "21%/22% on 1/6-1/8 bandwidth — flushes are latency-bound.\n"
        "Shape asserted: EC cheap everywhere; no-EC worst on the latency\n"
        "configurations; 8x > 4x.",
    ),
    (
        "figure_8",
        "Figure 8 — Optane DC PMM",
        "Paper: EasyCrash 6% average overhead; without EasyCrash 50%.\n"
        "Shape asserted: EC < 15%; no-EC exceeds EC by > 5 points.",
    ),
    (
        "figure_9",
        "Figure 9 — NVM write traffic",
        "Paper: EasyCrash adds 16% extra writes vs C/R's 38% (critical\n"
        "objects) and 50% (all objects): a 44% average reduction in extra\n"
        "writes; the benefit is largest for large data objects.\n"
        "Shape asserted: EC < C/R-all (the paper's headline comparison).\n"
        "Documented divergence: at mini-app scale the LLC:footprint ratio is\n"
        "~20x larger than the paper's, inflating flush-induced writes for\n"
        "the small hot applications (the paper itself notes EasyCrash 'is\n"
        "not beneficial' at reducing writes for small data objects), so the\n"
        "single-shot critical-object C/R is not strictly dominated here.",
    ),
    (
        "figure_10",
        "Figure 10 — system efficiency (MTBF 12 h)",
        "Paper: EasyCrash improves system efficiency by 2% / 3% / 15% on\n"
        "average at checkpoint costs 32 / 320 / 3200 s (up to 24%).\n"
        "Shape asserted: gains positive and increasing in T_chk; tau\n"
        "decreasing in T_chk.",
    ),
    (
        "figure_11",
        "Figure 11 — scaling with machine size (CG)",
        "Paper: the EasyCrash advantage grows from 100k to 200k to 400k nodes\n"
        "(MTBF 12/6/3 h).\n"
        "Shape asserted: gain non-negative everywhere and larger at 400k than\n"
        "at 100k for both checkpoint costs.",
    ),
    (
        "headline",
        "Headline claims",
        "Paper: 54% of crashes that cannot correctly recompute are transformed;\n"
        "82% average recomputability with EasyCrash; 1.5% average runtime\n"
        "overhead; 44% fewer extra NVM writes than C/R; up to 24% (15% avg)\n"
        "system-efficiency improvement.\n"
        "Shape asserted: see benchmarks/test_headline_claims.py bands.",
    ),
    (
        "ablation_frequency",
        "Ablation — flush frequency vs Eq. 5",
        "Extension: measured recomputability at flush frequencies 1/2/4/8\n"
        "against the paper's linear interpolation (Eq. 5).",
    ),
    (
        "ablation_selection",
        "Ablation — selection strategy",
        "Extension: EasyCrash's correlation-selected objects vs random and\n"
        "largest-objects picks at equal or larger flush volume.",
    ),
    (
        "ablation_crash_distribution",
        "Ablation — crash-time distribution",
        "Extension: sensitivity of measured recomputability to the crash-time\n"
        "law (uniform, early-biased, late-biased).",
    ),
    (
        "ablation_crash_model",
        "Ablation — crash model (persistence domain)",
        "Extension: inconsistent rate by application under each crash model\n"
        "(`repro.memsim.crashmodel`): the paper's whole-cache-loss, a bounded\n"
        "ADR write-pending queue, eADR full-cache flush-on-failure, and torn\n"
        "multi-word stores.  Survivor overlays guarantee\n"
        "eadr <= adr <= whole-cache-loss exactly, per crash point and object;\n"
        "the table shows how much of the paper's inconsistency is attributable\n"
        "to the persistence-domain assumption itself.",
    ),
    (
        "ablation_flush_instruction",
        "Ablation — CLWB vs CLFLUSHOPT",
        "Extension: equal protection, different cost — the invalidating flush\n"
        "reloads its lines (the paper's x2 estimate).",
    ),
    (
        "sensitivity_ts",
        "Sensitivity — the overhead bound ts",
        "Paper Sec. 6 also runs ts = 2% and 5%: overhead is always bounded by\n"
        "ts; smaller budgets force lower flush frequencies (and can fail tau).",
    ),
    (
        "multicore",
        "Extension — multi-threaded campaigns",
        "Paper Sec. 4.1: multi-threaded runs reach the same conclusions as\n"
        "single-threaded ones; reproduced on the MESI-lite multi-core model.",
    ),
    (
        "recovery_mix",
        "Extension — multi-node recovery mix",
        "Extension: the cluster emulator (`repro.cluster`) shards a campaign\n"
        "across emulated nodes, drives correlated failure bursts through them,\n"
        "and lets the recovery orchestrator choose per crashed node between an\n"
        "NVM restart (measured acceptance S1/S2) and a coordinated checkpoint\n"
        "rollback that rewinds the surviving peers.  The table counts both\n"
        "decisions per burst size and crash model; eADR's larger persistence\n"
        "domain converts rollbacks into restarts, which the measured-mix\n"
        "efficiency model (`efficiency_measured_multinode`) turns into a\n"
        "system-efficiency gain.",
    ),
]

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by
`pytest benchmarks/ --benchmark-only` (artifacts in `benchmarks/results/`,
sized by `REPRO_BENCH_SCALE`).  Absolute numbers are not expected to match
the paper — the substrate is a scaled simulator, not the authors' Xeon +
Optane testbed — but each section lists the *shape* criteria that the
benchmark suite asserts, mirroring who wins, by roughly what factor, and
where the crossovers fall.

Campaign sizes for the run recorded below: see the settings line in each
benchmark log (default: 120-test validation campaigns, 200-test planning
campaigns; the paper used 1000-2000 tests).

"""


def _twin_note(stem: str) -> str | None:
    """Provenance line from a section's machine-readable JSON twin."""
    twin = RESULTS / f"{stem}.json"
    if not twin.exists():
        return None
    try:
        doc = json.loads(twin.read_text(encoding="utf-8"))
    except ValueError:
        return f"*json twin `benchmarks/results/{stem}.json` unreadable*\n"
    return (
        f"*json twin: `benchmarks/results/{stem}.json` — "
        f"{len(doc.get('rows', []))} rows, scale `{doc.get('scale', '?')}`, "
        f"git `{doc.get('git_sha', '?')}`*\n"
    )


GOLDEN_NOTE = """## Golden-pass snapshot production

One instrumented execution feeds every crash test by replaying recorded
write-back deltas (`repro.memsim.golden`) instead of full-copying and
full-diffing the heap at each crash point; its cost is the
`memsim.golden.*` rows of the benchmark (`bench/README.md`), and
`benchmarks/test_campaign_throughput.py::test_golden_snapshot_speedup`
asserts >= 5x over the test tree's copy-and-diff oracle
(`tests/nvct/legacy_oracle.py`), the only other snapshot path left.
"""


def _crash_section() -> str:
    """Static recipe: reproducing a campaign across crashes of the harness."""
    return """## Recipe — campaigns across crashes of the harness

The paper studies applications that survive crashes; the harness applies
the same standard to itself.  To reproduce any experiment *while the
harness is being killed on purpose*:

```bash
# 1. A long campaign with a write-ahead journal:
python -m repro campaign MG --tests 2000 --jobs 0 \\
    --resume mg.journal --save mg-resumed.json

# 2. Kill it at any point (Ctrl-C exits 130; SIGKILL is fine too), then
#    rerun the same command: journaled trials are skipped, and the final
#    report is bit-identical to an uninterrupted run.

# 3. The control run, no interruption:
python -m repro campaign MG --tests 2000 --jobs 0 --save mg-clean.json
diff mg-resumed.json mg-clean.json   # identical

# 4. Every crash state of the harness's own writes (CI's durability job):
PYTHONPATH=src python -m pytest -q \\
    tests/harness/test_crash_states.py tests/harness/test_write_funnels.py
```

Step 4 records every write, fsync and rename a journaled campaign, a
resume over a torn tail, a cache round trip, `doctor fsck --repair` and
a served campaign make, then crashes before every op with un-synced
writes kept, dropped or torn: recovery must land on the state before or
after each write, finish to the serial `--save` bytes with each trial
journaled once, and read every cache entry as a miss or the right
result.  See the *Resilience & the campaign journal* section of
`docs/API.md`.
"""


def _service_section() -> str:
    """Static recipe: scaling a campaign across worker processes."""
    return """## Recipe — scaling a campaign across workers

`--jobs` forks one process pool inside a single `repro campaign`; the
orchestration service scales past it.  One scheduler shards the campaign
into leased chunks and any number of stateless workers drain them —
separate processes, started and stopped freely while the campaign runs:

```bash
python -m repro serve MG --tests 2000 --socket mg.sock \\
    --journal mg.jsonl --save mg-service.json &
python -m repro work --socket mg.sock --name w0 &
python -m repro work --socket mg.sock --name w1 &
python -m repro work --socket mg.sock --name w2 &
wait
```

Workers may be SIGKILLed at any point — missed heartbeats expire their
leases, the chunks re-run elsewhere, and fencing tokens reject any
zombie's late commit.  So may the scheduler: `repro serve --resume`
rebuilds its queue purely from the lease + campaign journals.  However
the run was mangled, the saved result is **byte-identical** to a serial
`repro campaign MG --tests 2000 --save` — CI's `service-soak` job
SIGKILLs two workers plus the scheduler per push and `cmp`s the
artifacts.  Dropped, duplicated and late messages, re-leased chunks and
scheduler restarts are checked in the tier-1 tests by a seeded
in-process simulation of the service (`tests/service/test_simulation.py`),
which compares the same bytes.  See *Campaign orchestration service* in
`docs/API.md`.
"""


def _equivalence_section() -> str:
    """Live table: distinct-image runs (serial restarts) vs naive sampling."""
    header = """## Restart reuse: distinct-image runs vs naive sampling

NVM content changes only on write-backs (evictions + persist flushes),
so crash points between the same two write-back events see bit-identical
NVM images and classify identically.  Every campaign's trial loop
(`repro.nvct.campaign._trial_loop`) compares each crash image's
dirty-block signature with the last one it classified and reuses that
outcome on a match, so a serial campaign restarts once per run of equal
images.  Its record list is **bit-identical** to restarting every image
(`tests/analysis/test_equiv_pass.py`, `tests/nvct/test_restart_reuse.py`)
at the reduction factors below, counted live by the analyzer's
equivalence pass (`repro.analysis.equiv_pass.build_crash_plan`) for the
proof-scale configurations the test suite uses:
"""
    try:
        from repro.analysis.equiv_pass import build_crash_plan
        from repro.apps.base import AppFactory
        from repro.apps.ep import EP
        from repro.apps.kmeans import KMeans
        from repro.nvct.campaign import CampaignConfig
        from repro.nvct.plan import PersistencePlan

        cases = [
            (AppFactory(EP, batches=8, batch_size=256, seed=2020), 200),
            (AppFactory(KMeans, n_points=256, n_features=4, k=4, seed=2020), 400),
        ]
        rows = [
            "| app | sampled points | distinct-image runs (= serial restarts) | reduction |",
            "|---|---|---|---|",
        ]
        for factory, n_tests in cases:
            app = factory.make(None)
            cands = [o.name for o in app.ws.heap.candidates()]
            cfg = CampaignConfig(
                n_tests=n_tests, seed=3, plan=PersistencePlan.at_loop_end(cands)
            )
            plan = build_crash_plan(factory, cfg)
            rows.append(
                f"| {factory.name} | {plan.n_points} | {plan.n_classes} "
                f"| {plan.n_points / plan.n_classes:.1f}x |"
            )
        table = "\n".join(rows) + "\n"
    except Exception as exc:  # pragma: no cover - doc builder resilience
        table = f"*(equivalence table unavailable: {exc})*\n"
    return header + "\n" + table


def _render_sections(missing: list[str]) -> list[str]:
    """HEADER plus the artifact-derived section blocks — the part of the
    document that is a pure function of the committed ``benchmarks/results/``
    artifacts (the static recipes and the live equivalence table below it
    are excluded from the drift check)."""
    parts = [HEADER]
    for stem, title, commentary in SECTIONS:
        path = RESULTS / f"{stem}.txt"
        parts.append(f"## {title}\n")
        parts.append(commentary.strip() + "\n")
        if path.exists():
            parts.append("```\n" + path.read_text(encoding="utf-8").rstrip() + "\n```\n")
            note = _twin_note(stem)
            if note:
                parts.append(note)
        else:
            missing.append(stem)
            parts.append("*(artifact missing — rerun the benchmark suite)*\n")
    return parts


def check() -> int:
    """Drift gate: the committed EXPERIMENTS.md must start with exactly
    the text this script would generate from the committed artifacts."""
    expected = "\n".join(_render_sections([]))
    try:
        actual = TARGET.read_text(encoding="utf-8")
    except OSError:
        print("EXPERIMENTS.md is missing — run tools/build_experiments_md.py", file=sys.stderr)
        return 1
    if actual.startswith(expected):
        print(f"{TARGET.name} is in sync with benchmarks/results/ ({len(SECTIONS)} sections)")
        return 0
    # Point at the first diverging line to make the failure actionable.
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    for i, (e, a) in enumerate(zip(exp_lines, act_lines), start=1):
        if e != a:
            print(
                f"EXPERIMENTS.md drifted from the generator at line {i}:\n"
                f"  committed: {a!r}\n"
                f"  generated: {e!r}",
                file=sys.stderr,
            )
            break
    else:
        print(
            f"EXPERIMENTS.md is shorter than the generated prefix "
            f"({len(act_lines)} < {len(exp_lines)} lines)",
            file=sys.stderr,
        )
    print("re-run: python tools/build_experiments_md.py (after the benchmark suite)", file=sys.stderr)
    return 1


def main() -> int:
    if not RESULTS.exists():
        print("no benchmarks/results/ — run the benchmark suite first", file=sys.stderr)
        return 1
    if "--check" in sys.argv[1:]:
        return check()
    missing: list[str] = []
    parts = _render_sections(missing)
    parts.append(_crash_section())
    parts.append(_service_section())
    parts.append(GOLDEN_NOTE)
    parts.append(_equivalence_section())
    TARGET.write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {TARGET} ({len(SECTIONS) - len(missing)}/{len(SECTIONS)} sections)")
    if missing:
        print("missing:", ", ".join(missing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
