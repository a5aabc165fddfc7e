#!/usr/bin/env python
"""Soak the campaign orchestration service under process murder.

The drill, end to end:

1. start ``repro serve`` plus three ``repro work`` processes;
2. SIGKILL two workers mid-chunk — their leases must expire and their
   chunks re-run elsewhere — and respawn replacements;
3. SIGKILL the *scheduler*, then restart it with ``--resume`` so it
   rebuilds the queue purely from the lease + campaign journals while the
   surviving workers reconnect and their stale tokens get fenced;
4. when everything drains, verify the hard invariants:
   - the campaign journal holds **exactly one** record per trial index
     (no gaps, no duplicates, counted on the raw journal lines);
   - the ``--save`` artifact is **byte-identical** to a serial
     ``run_campaign`` oracle.

Dropped, duplicated and late messages, re-leased chunks and scheduler
restarts at every message boundary are the deterministic simulation's
job (``tests/service/test_simulation.py``); this drill kills real
processes.

Exit status 0 only if the whole drill passes.  The workdir is left in
place on failure so CI can upload the journals (and any quarantine) as
artifacts.

Usage::

    PYTHONPATH=src python tools/service_soak.py --workdir service-soak
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Worker child: slow classification down so the kill choreography has a
#: campaign to interrupt (same trick as tests/cluster/test_sigkill_resume.py).
WORKER_CHILD = """
import sys, time
import repro.nvct.campaign as camp
_orig = camp._classify
def _slow(*a, **k):
    time.sleep(float(sys.argv[3]))
    return _orig(*a, **k)
camp._classify = _slow
from repro.cli import main
sys.exit(main(["work", "--socket", sys.argv[1], "--name", sys.argv[2]]))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Soak:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.workdir = Path(args.workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.socket = self.workdir / "scheduler.sock"
        self.journal = self.workdir / "campaign.jsonl"
        self.saved = self.workdir / "service.json"
        self.serve: subprocess.Popen | None = None
        self.workers: list[subprocess.Popen] = []
        self.log_fh = open(self.workdir / "children.log", "ab", buffering=0)

    def say(self, msg: str) -> None:
        print(f"[soak] {msg}", flush=True)

    # -- process management ----------------------------------------------------

    def spawn_serve(self, resume: bool) -> None:
        argv = [
            sys.executable, "-m", "repro", "serve", self.args.app,
            "--socket", str(self.socket), "--journal", str(self.journal),
            "--tests", str(self.args.tests), "--seed", str(self.args.seed),
            "--chunk-size", str(self.args.chunk_size),
            "--heartbeat-deadline", str(self.args.deadline),
            "--save", str(self.saved),
        ]
        if resume:
            argv.append("--resume")
        self.serve = subprocess.Popen(
            argv, env=_env(), stdout=self.log_fh, stderr=self.log_fh
        )
        self.say(f"scheduler up (pid {self.serve.pid}, resume={resume})")

    def spawn_worker(self, name: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-c", WORKER_CHILD, str(self.socket), name,
             str(self.args.trial_sleep)],
            env=_env(), stdout=self.log_fh, stderr=self.log_fh,
        )
        self.say(f"worker {name} up (pid {proc.pid})")
        return proc

    def sigkill(self, proc: subprocess.Popen, what: str) -> None:
        if proc.poll() is not None:
            raise SystemExit(
                f"{what} exited (rc {proc.returncode}) before its scheduled "
                f"SIGKILL — the campaign is too short for the choreography; "
                f"raise --tests or --trial-sleep"
            )
        self.say(f"SIGKILL {what} (pid {proc.pid})")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)

    def kill_everything(self) -> None:
        for proc in [self.serve, *self.workers]:
            if proc is not None and proc.poll() is None:
                proc.kill()

    # -- progress --------------------------------------------------------------

    def journaled_trials(self) -> int:
        if not self.journal.exists():
            return 0
        return self.journal.read_bytes().count(b'"kind": "trial"')

    def wait_for_trials(self, n: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.journaled_trials() >= n:
                return
            if self.serve is not None and self.serve.poll() is not None:
                raise SystemExit(
                    f"scheduler exited early (rc {self.serve.returncode}) at "
                    f"{self.journaled_trials()} trials — raise --tests or "
                    f"--trial-sleep so the kill choreography fits; see "
                    f"{self.workdir}/children.log"
                )
            time.sleep(0.05)
        raise SystemExit(
            f"timed out waiting for {n} journaled trials "
            f"(have {self.journaled_trials()}); see {self.workdir}/children.log"
        )

    # -- the drill -------------------------------------------------------------

    def run(self) -> None:
        q = self.args.tests // 4  # kill milestones: 1/4, 2/4, 3/4 of the run
        self.spawn_serve(resume=False)
        self.workers = [self.spawn_worker(f"soak-w{i}") for i in range(3)]

        self.wait_for_trials(q, self.args.timeout)
        self.sigkill(self.workers[0], "worker soak-w0")
        self.workers[0] = self.spawn_worker("soak-w0b")

        self.wait_for_trials(2 * q, self.args.timeout)
        self.sigkill(self.workers[1], "worker soak-w1")
        self.workers[1] = self.spawn_worker("soak-w1b")

        self.wait_for_trials(3 * q, self.args.timeout)
        self.sigkill(self.serve, "scheduler")
        time.sleep(0.5)  # let the survivors notice the dead socket
        self.spawn_serve(resume=True)

        deadline = time.monotonic() + self.args.timeout
        for proc, what in [(self.serve, "scheduler"),
                           *[(w, "worker") for w in self.workers]]:
            remaining = max(1.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise SystemExit(
                    f"{what} (pid {proc.pid}) never finished; see "
                    f"{self.workdir}/children.log"
                )
        if self.serve.returncode != 0:
            raise SystemExit(f"resumed scheduler exited {self.serve.returncode}")
        for w in self.workers:
            if w.returncode != 0:
                raise SystemExit(f"a worker exited {w.returncode}")
        self.say("all processes drained cleanly")

    # -- verification ----------------------------------------------------------

    def verify(self) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.apps.registry import get_factory
        from repro.harness import chaos
        from repro.nvct.campaign import CampaignConfig, run_campaign
        from repro.nvct.journal import scan_journal
        from repro.nvct.serialize import save_campaign

        chaos.disable()  # the oracle runs clean, whatever REPRO_CHAOS says

        # Exactly-once, counted on the raw journal lines (a dict-shaped
        # loader would silently absorb duplicates; the raw lines cannot lie).
        _, lines, _ = scan_journal(self.journal.read_bytes())
        indices = [doc["index"] for doc, _ in lines if doc.get("kind") == "trial"]
        dupes = {i for i in indices if indices.count(i) > 1}
        if dupes:
            raise SystemExit(f"duplicate journal records for indices {sorted(dupes)}")
        if set(indices) != set(range(len(indices))):
            raise SystemExit(
                f"journal index set has gaps: {len(indices)} records, "
                f"missing {sorted(set(range(len(indices))) - set(indices))[:10]}"
            )
        self.say(f"exactly-once holds over {len(indices)} journaled trials")

        factory = get_factory(self.args.app)
        cfg = CampaignConfig(n_tests=self.args.tests, seed=self.args.seed)
        oracle_path = self.workdir / "serial.json"
        save_campaign(run_campaign(factory, cfg), oracle_path)
        if self.saved.read_bytes() != oracle_path.read_bytes():
            raise SystemExit(
                f"service result diverged from the serial oracle: "
                f"cmp {self.saved} {oracle_path}"
            )
        self.say("service --save is byte-identical to the serial oracle")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="service-soak")
    parser.add_argument("--app", default="EP")
    parser.add_argument("--tests", type=int, default=60)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--chunk-size", type=int, default=4)
    parser.add_argument("--deadline", type=float, default=2.0,
                        help="lease heartbeat deadline (seconds)")
    parser.add_argument("--trial-sleep", type=float, default=0.1,
                        help="per-trial slowdown in workers, so kills land mid-run")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-phase timeout (seconds)")
    args = parser.parse_args()
    if args.tests < 8:
        parser.error("--tests must be >= 8 so the kill milestones are distinct")

    soak = Soak(args)
    try:
        soak.run()
        soak.verify()
    except SystemExit as exc:
        soak.kill_everything()
        print(f"[soak] FAILED: {exc}", file=sys.stderr, flush=True)
        return 1
    finally:
        soak.kill_everything()
        soak.log_fh.close()
    print("[soak] PASS", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
