"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list-apps``
    The benchmark suite with footprints and region counts.
``campaign APP``
    Run a crash-test campaign and print the postmortem summary.
``plan APP``
    Run the EasyCrash planning workflow and print the resulting plan.
``experiment ID``
    Regenerate one of the paper's tables/figures (e.g. ``fig6``,
    ``table1``); ``experiment all`` regenerates everything.
``system``
    The Sec. 7 system-efficiency model for given MTBF/checkpoint cost.
``analyze``
    Crash-consistency and instrumentation-escape analyzer over the
    benchmark apps (static AST pass + dynamic trace pass);
    ``--strict`` is the CI gate, and ``--sarif`` exports SARIF 2.1.0.
``stats``
    Dump a machine-readable ``bench.json`` produced by ``campaign
    --stats`` (before/after performance comparison is ``bench/run.py``
    + ``bench/compare.py``, not this command).
``doctor``
    Environment preflight (interpreter/numpy versions, cache-dir
    writability, free disk, quota, journal ownership) and ``doctor
    fsck [--repair]``: scan the artifact cache and campaign journals,
    classifying every entry (ok / corrupt / foreign-version /
    orphaned-tmp); ``--repair`` quarantines the bad ones and rebuilds
    the LRU index.
``serve APP``
    Campaign orchestration scheduler (:mod:`repro.service`): shard the
    campaign into leased trial chunks, hand them to ``repro work``
    workers over a Unix socket, reap dead workers, and assemble the
    final (bit-identical) result from its own recordings and the
    committed records.  ``--resume`` rebuilds the queue after a
    scheduler crash.
``work``
    Stateless campaign worker: connect to a ``repro serve`` socket,
    pull leases, classify chunks from the golden store the scheduler
    published (same host and filesystem), stream records back,
    heartbeat, commit.  Run as many as you like.

Exit codes: 0 success, 1 findings/failed check, 2 usage or
environment error, 3 data corruption (:class:`~repro.errors.
SnapshotCorruptError`), 130 interrupted — see :mod:`repro.errors`.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import (
    EXIT_CORRUPT,
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_USAGE,
    JournalError,
    ServiceError,
    SnapshotCorruptError,
    UsageError,
)

__all__ = ["main", "build_parser"]

EXPERIMENTS = {
    "table1": "table1_characteristics",
    "fig3": "fig3_responses",
    "fig4a": "fig4_mg_objects",
    "fig4b": "fig4_mg_regions",
    "fig5": "fig5_selection_strategies",
    "fig6": "fig6_easycrash",
    "table4": "table4_overhead",
    "fig7": "fig7_nvm_sensitivity",
    "fig8": "fig8_optane",
    "fig9": "fig9_nvm_writes",
    "fig10": "fig10_system_efficiency",
    "fig11": "fig11_scaling",
    "headline": "headline_claims",
}


def _add_jobs_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the parallel campaign engine "
        "(0 = all CPUs; default: $REPRO_JOBS, else serial)",
    )


def _add_campaign_flags(sub: argparse.ArgumentParser) -> None:
    """The flags that describe *which* campaign runs — declared once, for
    ``repro campaign`` (local executors) and ``repro serve`` (socket
    workers) alike; :func:`_campaign_config` turns them into the config."""
    sub.add_argument("app", help="application name (see list-apps)")
    sub.add_argument("--tests", type=int, default=100, help="number of crash tests")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--plan",
        choices=["none", "loop", "easycrash"],
        default="none",
        help="persistence plan: none, flush candidates at loop end, or the planned EasyCrash configuration",
    )
    sub.add_argument("--cores", type=int, default=1, help="simulated cores")
    sub.add_argument("--save", metavar="FILE", help="write the campaign to a JSON file")
    sub.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trial deadline: a trial exceeding it is quarantined as a "
        "FAILED record instead of hanging the campaign (Unix only; "
        "default: unbounded)",
    )
    sub.add_argument(
        "--crash-model",
        metavar="MODEL",
        default="whole-cache-loss",
        help="crash model (repro.memsim.crashmodel): whole-cache-loss "
        "(default, the paper's), adr[:wpq=N] (a bounded write-pending "
        "queue of the most recent lines drains), eadr[:granularity=G] "
        "(dirty caches flush; the in-flight store tears), or "
        "torn[:granularity=G] (a seeded prefix of the in-flight store "
        "persists)",
    )
    sub.add_argument(
        "--nodes",
        type=int,
        default=1,
        metavar="N",
        help="emulated cluster size: shard the campaign across N nodes, "
        "each with its own cache hierarchy and NVM survivor overlay, and "
        "drive crashes from a correlated burst schedule (repro.cluster); "
        "--tests counts total node crashes across the cluster",
    )
    sub.add_argument(
        "--correlation",
        type=float,
        default=0.0,
        metavar="C",
        help="failure correlation in [0, 1): each crash spawns a "
        "correlated follow-up with probability C, so one burst can take "
        "down several nodes at the same instant (default 0)",
    )
    sub.add_argument(
        "--burst-window",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="emulated-time window grouping correlated failures into one "
        "burst (default 600)",
    )
    sub.add_argument(
        "--recovery-log",
        metavar="FILE",
        default=None,
        help="(multi-node) write the per-burst recovery-decision log "
        "(NVM restart vs checkpoint rollback, coordinated-rollback "
        "propagation) as JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EasyCrash reproduction: NVM crash testing for HPC applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list the benchmark applications")

    ch = sub.add_parser("characterize", help="profile an application's data objects")
    ch.add_argument("app")

    c = sub.add_parser("campaign", help="run a crash-test campaign")
    _add_campaign_flags(c)
    c.add_argument(
        "--until-stable",
        action="store_true",
        help="grow the campaign until the estimate moves < 5%% between rounds (the paper's stopping rule)",
    )
    c.add_argument(
        "--stats",
        metavar="FILE",
        default=None,
        help="enable telemetry (repro.obs) and write bench.json metrics to "
        "FILE plus the span trace to FILE's .trace.jsonl sibling",
    )
    c.add_argument(
        "--resume",
        metavar="JOURNAL",
        default=None,
        help="write-ahead trial journal (JSONL): created if missing, and a "
        "rerun against the same journal skips every completed trial — an "
        "interrupted campaign resumed this way is bit-identical to an "
        "uninterrupted one",
    )
    _add_jobs_flag(c)

    p = sub.add_parser("plan", help="run the EasyCrash planning workflow")
    p.add_argument("app")
    p.add_argument("--tests", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ts", type=float, default=0.03, help="runtime overhead bound")
    _add_jobs_flag(p)

    e = sub.add_parser("experiment", help="regenerate a paper table/figure")
    e.add_argument("id", choices=[*EXPERIMENTS, "all"])
    _add_jobs_flag(e)
    e.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent artifact cache directory (default: $REPRO_CACHE_DIR)",
    )

    an = sub.add_parser(
        "analyze",
        help="crash-consistency / instrumentation-escape analyzer",
        description="Run the static (AST) and dynamic (trace) analysis "
        "passes over the application suite; see docs/API.md for the rule "
        "catalog and the inline allow comment.",
    )
    an.add_argument(
        "paths", nargs="*",
        help="source files for the static pass (default: the repro.apps package)",
    )
    an.add_argument(
        "--strict", action="store_true",
        help="fail on any finding, warnings included (the CI gate)",
    )
    an.add_argument(
        "--no-dynamic", action="store_true",
        help="skip the dynamic trace pass (static AST analysis only)",
    )
    an.add_argument(
        "--apps", nargs="*", default=None, metavar="APP",
        help="applications for the dynamic pass (default: the whole registry)",
    )
    an.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="also write the report as SARIF 2.1.0",
    )

    st = sub.add_parser(
        "stats",
        help="dump bench.json telemetry files",
        description="Dump bench.json metric files (written by `repro "
        "campaign --stats`) as tables.",
    )
    st.add_argument("files", nargs="+", metavar="FILE", help="bench.json file(s)")

    d = sub.add_parser(
        "doctor",
        help="environment preflight and artifact-store fsck",
        description="Without an action: preflight the environment a long "
        "campaign depends on. 'doctor fsck' scans the artifact cache and "
        "any --journal files, printing a per-entry verdict; --repair "
        "quarantines bad entries (never deletes), truncates corrupt "
        "journal tails, and rebuilds the cache's LRU index.",
    )
    d.add_argument(
        "action", nargs="?", choices=["preflight", "fsck"], default="preflight",
        help="what to run (default: preflight)",
    )
    d.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="artifact cache root to check (default: $REPRO_CACHE_DIR)",
    )
    d.add_argument(
        "--journal", action="append", default=[], metavar="FILE",
        help="campaign journal to check (repeatable)",
    )
    d.add_argument(
        "--repair", action="store_true",
        help="fsck only: quarantine bad entries and rebuild the LRU index",
    )

    sv = sub.add_parser(
        "serve",
        help="campaign orchestration scheduler (lease-based, crash-restartable)",
        description="Shard a campaign into fixed-size trial chunks and "
        "serve them as journaled work leases to `repro work` workers over "
        "a Unix socket. Every grant/expiry/commit is an fsync'd journal "
        "line, so a SIGKILL'd scheduler restarts with --resume and the "
        "final result is bit-identical to `repro campaign` (same summary, "
        "same --save file).",
    )
    _add_campaign_flags(sv)
    sv.add_argument("--socket", required=True, metavar="PATH",
                    help="Unix socket path the scheduler listens on")
    sv.add_argument("--journal", required=True, metavar="FILE",
                    help="campaign trial journal (per-node siblings are "
                    "derived for --nodes, like `campaign --resume`)")
    sv.add_argument("--lease-journal", metavar="FILE", default=None,
                    help="lease event journal (default: <journal>.leases)")
    from repro.service.scheduler import DEFAULT_CHUNK_SIZE

    sv.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE, metavar="N",
                    help="trials per work lease (default %(default)s)")
    sv.add_argument("--heartbeat-deadline", type=float, default=30.0,
                    metavar="SECONDS",
                    help="missed-heartbeat deadline before the reaper "
                    "expires a lease and re-issues its chunk (default 30)")
    sv.add_argument("--resume", action="store_true",
                    help="rebuild the queue from an existing lease journal "
                    "(required after a scheduler crash; without it a "
                    "non-empty lease journal is refused)")

    w = sub.add_parser(
        "work",
        help="stateless campaign worker for a `repro serve` scheduler",
        description="Connect to a scheduler socket, pull work leases, "
        "execute their trial chunks through the golden-pass engine, "
        "stream records back, and heartbeat until the campaign is done. "
        "Safe to SIGKILL at any point: the reaper re-issues the chunk "
        "and fencing tokens reject this worker's late commit.",
    )
    w.add_argument("--socket", required=True, metavar="PATH",
                   help="Unix socket path of the scheduler")
    w.add_argument("--name", default=None, metavar="NAME",
                   help="worker name for lease bookkeeping (default: worker-<pid>)")
    w.add_argument("--idle-timeout", type=float, default=30.0, metavar="SECONDS",
                   help="how long to retry a dead socket before concluding "
                   "the campaign is over (default 30)")

    a = sub.add_parser("advise", help="Sec. 8 deployment decision for an application")
    a.add_argument("app")
    a.add_argument("--mtbf-hours", type=float, default=12.0)
    a.add_argument("--t-chk", type=float, default=3200.0)
    a.add_argument("--ts", type=float, default=0.03)
    a.add_argument("--tests", type=int, default=150)

    s = sub.add_parser("system", help="Sec. 7 system-efficiency model")
    s.add_argument("--mtbf-hours", type=float, default=12.0)
    s.add_argument("--t-chk", type=float, default=3200.0)
    s.add_argument("--recomputability", type=float, default=0.82)
    s.add_argument("--ts", type=float, default=0.015)
    return parser


def _cmd_list_apps() -> int:
    from repro.apps.registry import APP_NAMES, get_factory
    from repro.util.tables import render_table

    rows = []
    for name in APP_NAMES:
        fac = get_factory(name)
        app = fac.make(None)
        heap = app.ws.heap
        rows.append(
            [
                name,
                len(fac.regions),
                f"{heap.footprint_bytes() / 1024:.0f}KB",
                f"{heap.candidate_bytes() / 1024:.0f}KB",
                app.nominal_iterations(),
            ]
        )
    print(render_table(
        ["App", "#regions", "Footprint", "Candidates", "Iterations"], rows
    ))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_factory
    from repro.nvct.characterize import characterize

    print(characterize(get_factory(args.app)).render())
    return 0


def _install_sigterm_handler() -> None:
    """Turn SIGTERM into the same graceful unwind SIGINT gets.

    A supervisor's ``kill`` (the default TERM, not KILL) must not drop a
    journal tail: raising ``KeyboardInterrupt`` unwinds through the
    ``finally`` blocks that flush + fsync every open journal, and
    :func:`main` maps it to the documented INTERRUPTED exit code.
    Installed only for journal-writing commands (campaign, serve, work).
    """
    import signal

    def _term(signum: object, frame: object) -> None:
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _term)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass


def _campaign_config(args: argparse.Namespace):
    """``(factory, CampaignConfig)`` from the shared campaign flags,
    rejecting the combinations no executor supports."""
    from repro.apps.registry import get_factory
    from repro.nvct.campaign import CampaignConfig
    from repro.nvct.plan import PersistencePlan

    factory = get_factory(args.app)
    if args.plan == "none":
        plan = PersistencePlan.none()
    elif args.plan == "loop":
        app = factory.make(None)
        plan = PersistencePlan.at_loop_end([o.name for o in app.ws.heap.candidates()])
    else:
        from repro.core.planner import EasyCrashConfig, plan_easycrash

        report = plan_easycrash(
            factory, EasyCrashConfig(n_tests=args.tests, seed=args.seed)
        )
        print(f"critical objects: {', '.join(report.critical_objects) or '(none)'}")
        plan = report.plan
    cfg = CampaignConfig(
        n_tests=args.tests, seed=args.seed, plan=plan, n_cores=args.cores,
        crash_model=args.crash_model, nodes=args.nodes,
        correlation=args.correlation, burst_window_s=args.burst_window,
    )
    until_stable = getattr(args, "until_stable", False)  # a `campaign`-only flag
    cluster = "--nodes/--correlation"
    for given, flag, other, why in (
        (cfg.clustered and until_stable, "--until-stable", cluster,
         "the burst schedule covers a fixed campaign"),
        (cfg.clustered and args.cores > 1, "--cores > 1", cluster,
         "each emulated node is one rank"),
        (until_stable and args.resume, "--resume", "--until-stable",
         "round sizes grow adaptively"),
    ):
        if given:
            raise UsageError(f"{flag} is not supported with {other} ({why})")
    return factory, cfg


def _finish_campaign(result, args: argparse.Namespace) -> None:
    """``--save`` / ``--recovery-log`` and the postmortem summary of a
    finished campaign, single-node or cluster — campaign and serve print
    through this one function, so their outputs diff clean."""
    from repro.cluster import ClusterResult, report as cluster_report
    from repro.nvct import report, serialize

    clustered = isinstance(result, ClusterResult)
    if args.save:
        save = serialize.save_cluster_result if clustered else serialize.save_campaign
        what = "cluster campaign" if clustered else "campaign"
        print(f"{what} saved to {save(result, args.save)}")
    if clustered:
        if args.recovery_log:
            import json as _json

            from repro.obs.export import write_text

            out = write_text(args.recovery_log, _json.dumps(result.log.to_dict(), indent=1))
            print(f"recovery log written to {out}")
        sections = [
            cluster_report.cluster_summary(result),
            cluster_report.recovery_mix_table(result.log),
            cluster_report.decision_log(result.log),
        ]
    else:
        sections = [
            report.campaign_summary(result),
            report.region_breakdown(result),
            report.object_inconsistency_table(result),
        ]
    print("\n\n".join(sections))


def _cmd_campaign(args: argparse.Namespace) -> int:
    import contextlib
    import os

    from repro import obs

    _install_sigterm_handler()
    scope = obs.enabled() if args.stats else contextlib.nullcontext()
    with scope as reg:
        factory, cfg = _campaign_config(args)
        if args.until_stable:
            from repro.nvct.adaptive import run_campaign_until_stable

            stable = run_campaign_until_stable(
                factory, cfg, round_size=args.tests, trial_timeout=args.trial_timeout
            )
            result = stable.result
            print(f"stabilized after {stable.rounds} rounds ({result.n_tests} tests)")
        elif cfg.clustered:
            from repro.cluster import run_cluster_campaign

            result = run_cluster_campaign(
                factory, cfg, journal=args.resume, trial_timeout=args.trial_timeout
            )
        else:
            from repro.nvct.campaign import run_campaign

            result = run_campaign(
                factory, cfg, journal=args.resume, trial_timeout=args.trial_timeout
            )
        _finish_campaign(result, args)
        if reg is not None:
            from pathlib import Path

            from repro.obs import export as obs_export

            records = obs_export.bench_records(
                reg, scale=os.environ.get("REPRO_BENCH_SCALE", "default")
            )
            out = obs_export.write_bench(args.stats, records)
            trace = obs_export.write_jsonl(
                Path(args.stats).with_suffix(".trace.jsonl"), reg.tracer.to_records()
            )
            print(f"\nbench metrics: {out} ({len(records)} records; trace: {trace})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import CampaignScheduler, serve_forever

    _install_sigterm_handler()
    factory, cfg = _campaign_config(args)
    # The socket-worker executor: the scheduler records the campaign once
    # and publishes each shard's golden store; `repro work` processes map
    # the store and classify.
    scheduler = CampaignScheduler(
        factory,
        cfg,
        journal=args.journal,
        lease_journal=args.lease_journal,
        chunk_size=args.chunk_size,
        deadline_s=args.heartbeat_deadline,
        resume=args.resume,
        trial_timeout=args.trial_timeout,
    )
    serve_forever(scheduler, args.socket)
    print("campaign complete")
    # The service is a drop-in superset of `repro campaign`: the result is
    # assembled from the scheduler's own recordings and the records its
    # ledgers committed (no further run), then saved and printed through
    # the same helper, so outputs diff clean against a serial run.
    _finish_campaign(scheduler.result(), args)
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.service import run_worker

    _install_sigterm_handler()
    committed = run_worker(args.socket, name=args.name, idle_timeout_s=args.idle_timeout)
    print(f"worker done: {committed} chunk(s) committed")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import sys as _sys

    from repro.obs import export as obs_export

    try:
        for path in args.files:
            print(obs_export.render_bench(obs_export.load_bench(path)))
    except SnapshotCorruptError:
        raise  # a ValueError subclass, but corruption exits 3, not 2
    except (OSError, ValueError) as exc:
        print(f"stats: {exc}", file=_sys.stderr)
        return 2
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    import os
    from pathlib import Path

    from repro.harness import store

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR", "").strip() or None
    journals = [Path(j) for j in args.journal]

    if args.action == "preflight":
        checks = store.preflight(cache_dir=cache_dir, journals=journals)
        width = max(len(c.name) for c in checks)
        healthy = True
        for c in checks:
            print(f"{'ok' if c.ok else 'FAIL':>4}  {c.name:<{width}}  {c.detail}")
            healthy = healthy and c.ok
        print("doctor: OK" if healthy else "doctor: FAIL")
        return 0 if healthy else 1

    # fsck
    if cache_dir is None and not journals:
        print(
            "doctor fsck: nothing to scan (set --cache-dir/$REPRO_CACHE_DIR "
            "or pass --journal)",
            file=sys.stderr,
        )
        return 2
    verdicts: list[store.Verdict] = []
    if cache_dir is not None:
        verdicts.extend(store.fsck_cache(cache_dir))
    for journal in journals:
        journal_verdicts, _ = store.fsck_journal(journal)
        verdicts.extend(journal_verdicts)
    for v in verdicts:
        detail = f"  ({v.detail})" if v.detail else ""
        print(f"{v.verdict:>15}  {v.path}{detail}")
    bad = [v for v in verdicts if v.bad]
    if not bad:
        print(f"fsck: OK ({len(verdicts)} entr{'y' if len(verdicts) == 1 else 'ies'})")
        return 0
    if not args.repair:
        print(f"fsck: {len(bad)} bad entr{'y' if len(bad) == 1 else 'ies'} "
              "(rerun with --repair to quarantine)")
        return 1
    moved: list[Path] = []
    if cache_dir is not None:
        moved.extend(store.repair_cache(cache_dir))
    for journal in journals:
        tail = store.repair_journal(journal)
        if tail is not None:
            moved.append(tail)
    for target in moved:
        print(f"quarantined -> {target}")
    print(f"fsck: repaired ({len(moved)} quarantined, index rebuilt)")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_factory
    from repro.core.planner import EasyCrashConfig, plan_easycrash

    factory = get_factory(args.app)
    report = plan_easycrash(
        factory, EasyCrashConfig(n_tests=args.tests, seed=args.seed, ts=args.ts)
    )
    print(f"application: {report.app}")
    print(f"baseline recomputability: {report.baseline_campaign.recomputability():.1%}")
    print(f"critical objects: {', '.join(report.critical_objects) or '(none)'}")
    sel = report.region_selection
    if sel is None:
        print("no profitable persistence plan (EasyCrash degenerates to C/R)")
        return 0
    for choice in sel.choices:
        where = "iteration end" if choice.region == "__loop_end__" else f"region {choice.region}"
        print(f"flush at {where}, every {choice.frequency} execution(s)"
              f" (est. overhead {choice.cost_share:.2%})")
    print(f"predicted recomputability: {sel.predicted_recomputability:.1%}")
    print(f"budget: {sel.total_cost_share:.2%} of ts={sel.ts:.0%}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness import experiments
    from repro.harness.context import get_context

    ctx = get_context()
    ids = list(EXPERIMENTS) if args.id == "all" else [args.id]
    for exp_id in ids:
        fn = getattr(experiments, EXPERIMENTS[exp_id])
        print(fn(ctx).render())
        print()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze

    report = analyze(
        paths=args.paths or None,
        apps=args.apps,
        dynamic=not args.no_dynamic,
    )
    print(report.render())
    if args.sarif:
        from repro.analysis.sarif import write_sarif

        print(f"sarif report: {write_sarif(report, args.sarif)}")
    if report.ok(strict=args.strict):
        print("analysis: OK" + (" (strict)" if args.strict else ""))
        return 0
    return 1


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_factory
    from repro.core.advisor import DeploymentScenario, advise
    from repro.core.planner import EasyCrashConfig

    scenario = DeploymentScenario(
        mtbf_s=args.mtbf_hours * 3600.0, t_chk_s=args.t_chk, ts=args.ts
    )
    report = advise(
        get_factory(args.app),
        scenario,
        EasyCrashConfig(n_tests=args.tests, refinement_tests=max(40, args.tests // 2)),
        validation_tests=args.tests,
    )
    print(report.summary())
    if report.use_easycrash:
        print(f"plan: {report.plan}")
    return 0


def _cmd_system(args: argparse.Namespace) -> int:
    from repro.system.efficiency import (
        SystemParams,
        efficiency_baseline,
        efficiency_easycrash,
        recomputability_threshold,
    )

    p = SystemParams(mtbf_s=args.mtbf_hours * 3600.0, t_chk_s=args.t_chk)
    base = efficiency_baseline(p)
    ec = efficiency_easycrash(p, args.recomputability, args.ts)
    print(f"MTBF {args.mtbf_hours:.1f}h, T_chk {args.t_chk:.0f}s, "
          f"R={args.recomputability:.2f}, ts={args.ts:.1%}")
    print(f"efficiency without EasyCrash: {base:.3f}")
    print(f"efficiency with EasyCrash:    {ec:.3f}  ({ec - base:+.3f})")
    print(f"tau (break-even recomputability): {recomputability_threshold(p, args.ts):.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    import os

    args = build_parser().parse_args(argv)
    # The engine reads REPRO_JOBS / REPRO_CACHE_DIR wherever campaigns are
    # launched (CLI paths, harness context, planner); the flags just seed
    # the environment so one mechanism serves every layer.
    if getattr(args, "jobs", None) is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if getattr(args, "cache_dir", None):
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    try:
        code = _dispatch(args)
        # Inside the try, so a closed stdout surfaces here and not in the
        # interpreter's exit-time flush.
        sys.stdout.flush()
        return code
    except KeyboardInterrupt:
        # Worker pools are terminated by the context managers unwinding and
        # every journal append was already fsync'd, so a Ctrl-C'd campaign
        # with --resume loses at most the trial in flight.
        print(
            "\ninterrupted — pools terminated, journal flushed; "
            "rerun with --resume to continue",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # The reader of stdout went away (`repro ... | head`): a normal
        # end.  Close stdout, so the interpreter's exit-time flush skips
        # it instead of raising again; closing flushes the unsent tail,
        # which fails the same way.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    except SnapshotCorruptError as exc:
        # Corruption that no self-healing path absorbed: distinct exit code
        # so automation can tell "data is damaged" (run doctor fsck) from
        # usage errors.
        print(f"corrupt: {exc}", file=sys.stderr)
        print("hint: repro doctor fsck --repair quarantines bad entries", file=sys.stderr)
        return EXIT_CORRUPT
    except JournalError as exc:
        print(f"journal: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ServiceError as exc:
        # The command ran but the service could not finish its job (e.g.
        # a worker's circuit breaker tripped): a failure, not a usage
        # error — journals are intact, another worker can carry on.
        print(f"service: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list-apps":
        return _cmd_list_apps()
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "doctor":
        return _cmd_doctor(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "work":
        return _cmd_work(args)
    if args.command == "advise":
        return _cmd_advise(args)
    if args.command == "system":
        return _cmd_system(args)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
