#!/usr/bin/env python3
"""Compare two result documents written by ``run.py --out``.

    python3 bench/compare.py A.json B.json        # A = parent / first set, B = change / second set

One row per (workload, end-to-end metric): both medians, how much worse B
is than A as a share of A, the metric's bound from ``BENCHMARK.json`` and a
verdict:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  the run-to-run spread (quartile distance / median) of
                  either side is wider than the bound, so the medians cannot
                  settle it -- unless every run of B beats every run of A.

``failed_share`` must be 0 on both sides.  Exact counts (traced runs) and
record-set digests are compared for equality wherever both documents hold
the same (workload, seed).  Exit status 1 on any ``worse`` or mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 with fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def by_workload(doc: dict, trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in doc["runs"]:
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    if max(spread(a), spread(b)) > bound:
        b_always_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return worse_by, "ok" if b_always_better else "unresolved"
    return worse_by, "worse" if worse_by > bound else "ok"


def compare(doc_a: dict, doc_b: dict) -> tuple[list[str], bool]:
    lines, bad = [], False
    lines.append(f"{'workload':16s} {'metric':16s} {'A median':>12s} {'A spread':>8s} {'B median':>12s} {'B spread':>8s} "
                 f"{'B worse by':>11s} {'bound':>6s}  verdict")
    runs_a, runs_b = by_workload(doc_a, 0), by_workload(doc_b, 0)
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in SPEC["end_to_end"]:
            a = [r["metrics"][metric["name"]]["value"] for r in runs_a[workload]]
            b = [r["metrics"][metric["name"]]["value"] for r in runs_b[workload]]
            worse_by, word = verdict(a, b, metric["better"], metric["bound"])
            bad |= word == "worse"
            lines.append(
                f"{workload:16s} {metric['name']:16s} {statistics.median(a):12.5g} {spread(a):8.1%} "
                f"{statistics.median(b):12.5g} {spread(b):8.1%} {worse_by:+11.1%} {metric['bound']:6.0%}  {word}"
            )
        failed_a = max(r["failed_share"] for r in runs_a[workload])
        failed_b = max(r["failed_share"] for r in runs_b[workload])
        word = "ok" if failed_a == failed_b == 0 else "worse"
        bad |= word == "worse"
        lines.append(f"{workload:16s} {'failed_share':16s} {failed_a:12.5g} {'':8s} {failed_b:12.5g} {'':8s} {'':>11s} {'0':>6s}  {word}")

    # equality of everything that must repeat bit for bit
    def keyed(doc: dict) -> dict:
        return {(r["workload"], r["seed"], r["trace"]): r for r in doc["runs"]}

    a_runs, b_runs = keyed(doc_a), keyed(doc_b)
    for key in sorted(set(a_runs) & set(b_runs)):
        ra, rb = a_runs[key], b_runs[key]
        for name in sorted(set(ra["exact"]) | set(rb["exact"])):
            if ra["exact"].get(name) != rb["exact"].get(name):
                bad = True
                lines.append(f"MISMATCH {key[0]} seed {key[1]}: exact count {name}: {ra['exact'].get(name)} != {rb['exact'].get(name)}")
        da, db = ra.get("pass_digests", {}), rb.get("pass_digests", {})
        for seed in sorted(set(da) & set(db)):
            if da[seed] != db[seed]:
                bad = True
                lines.append(f"MISMATCH {key[0]} pass seed {seed}: record-set digest {da[seed][:12]} != {db[seed][:12]}")
    return lines, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    lines, bad = compare(doc_a, doc_b)
    print("\n".join(lines))
    print("verdict:", "WORSE or mismatching" if bad else "no regression beyond the bounds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
