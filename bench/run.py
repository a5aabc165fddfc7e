#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py                       every workload, untraced and traced
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it,
each workload runs in its own child process (set-up time and peak RSS are
per-process numbers) and the summary document ends with ``"claim": null``.
The exit status is non-zero whenever any record set failed its checks.
"""

import time

PROCESS_START = time.perf_counter()  # setup_s counts from here: before any import below

import argparse
import json
import subprocess
import sys

import common

common.prepare_environment()  # before numpy is imported, by us or by the program


def parse_args(argv=None) -> argparse.Namespace:
    names = [w["name"] for w in common.SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names, help="run one workload in this process (default: all, one child each)")
    ap.add_argument("--seed", type=int, default=0, help="first pass seed; passes use seed, seed+1, ...")
    ap.add_argument("--seconds", type=float, default=float(common.SPEC["run_seconds"]),
                    help="measure until this much time has elapsed (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                    help="0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run "
                         "(default: 0 with --workload, both without)")
    ap.add_argument("--runs", type=int, default=1, help="without --workload: untraced runs per workload, on seeds seed..seed+runs-1")
    ap.add_argument("--out", metavar="FILE", help="also write the full result document (input of compare.py)")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate bench/expected.json (only for a PR whose issue says results change)")
    return ap.parse_args(argv)


def print_run(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']}  seed {result['seed']}  ({mode})")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_share':42s} {result['failed_share']:>16.6g} ratio   "
          f"({result['failed']} of {result['attempted']} trials)")
    if "pass_wall_s" in result:
        p = result["pass_wall_s"]
        print(f"  pass wall: median {p['median']:.3f} s, min {p['min']:.3f}, max {p['max']:.3f}, n={p['n']}")
    if "self_time_s" in result:
        busiest = sorted(result["self_time_s"].items(), key=lambda kv: -kv[1])[:8]
        print("  self time: " + ", ".join(f"{name} {t:.2f} s" for name, t in busiest))
    print(f"  result_digest {result['result_digest']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def run_one(args: argparse.Namespace) -> int:
    if args.trace:
        import layers

        result = layers.run_traced(args.workload, args.seed)
    else:
        import workloads

        result = workloads.run(args.workload, args.seed, args.seconds, PROCESS_START)
    result["stamp"] = common.stamp(args.seed)
    print(json.dumps(result["stamp"]))
    print_run(result)
    if args.out:
        write_document(args.out, [result])
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def write_document(path: str, runs: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"runs": runs, "claim": None}, fh, indent=1)
        fh.write("\n")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own child process; children's documents are
    collected through ``--out`` files in the scratch directory."""
    plan = []
    for w in common.SPEC["workloads"]:
        if args.trace in (None, 0):
            plan += [(w["name"], args.seed + k, 0) for k in range(args.runs)]
        if args.trace in (None, 1):
            plan.append((w["name"], args.seed, 1))
    runs: list[dict] = []
    status = 0
    with common.scratch() as tmp:
        for i, (name, seed, trace) in enumerate(plan):
            out = tmp / f"run{i}.json"
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out)],
                stdout=subprocess.PIPE, text=True,
            )
            if child.returncode or not out.exists():
                status = 1
                print(f"== {name} seed {seed} trace {trace}: child exited {child.returncode}\n{child.stdout[-2000:]}")
            if out.exists():
                result = json.loads(out.read_text())["runs"][0]
                runs.append(result)
                print_run(result)
    if args.out:
        write_document(args.out, runs)
    summary = {
        "stamp": common.stamp(args.seed),
        "workloads": sorted({r["workload"] for r in runs}),
        "runs": len(runs),
        "failed_share": {f"{r['workload']}/seed{r['seed']}/trace{r['trace']}": r["failed_share"] for r in runs},
        "claim": None,
    }
    print(json.dumps(summary, indent=1))
    return status


def write_expected() -> int:
    """Digest every workload's first four pass seeds, full size."""
    import workloads

    digests: dict = {}
    for name, wl in workloads.WORKLOADS.items():
        digests[name] = {}
        for seed in range(4):
            with common.scratch() as tmp:
                doc, problems = wl.execute(wl.full, seed, tmp)
            if problems:
                sys.exit(f"bench: {name} seed {seed}: {problems}")
            digests[name][str(seed)] = common.digest(doc)
            print(name, seed, digests[name][str(seed)])
    with open(common.BENCH_DIR / "expected.json", "w") as fh:
        json.dump({"platform_probe": common.platform_probe(), "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_expected:
        return write_expected()
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
