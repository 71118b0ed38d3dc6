"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show the benchmark suite (sequential + parallel) and the policy
    keys.
``run BENCH [--policy KEY] [--size SIZE] [--cores N] [--jobs N]
[--json] [--verbose]``
    Run one sampling policy on one benchmark and print the result.
    ``--cores N`` runs an N-hart guest (parallel benchmarks default
    to their own core count); ``--verbose`` streams one decision line
    per interval (forces a fresh simulation); ``--json`` prints a
    machine-readable record.
``suite [--policy KEY] [--size SIZE] [--benchmarks a,b,c] [--cores N]
[--jobs N] [--timeout S] [--force] [--trace DIR] [--telemetry [DIR]]
[--json] [--verbose]``
    Run a policy over the suite with per-benchmark error vs full
    timing.  ``--jobs N`` (or ``REPRO_JOBS``) runs the grid on N
    worker processes; progress streams to stderr and a re-invoked
    sweep resumes from the result store, re-running only missing or
    failed cells (``--force`` re-runs everything).  ``--trace DIR``
    writes one tagged JSONL event file per job plus a merged trace.
    ``--telemetry`` gives the run an on-disk telemetry directory
    (job lifecycle events, worker heartbeats, end-of-run
    ``run-report.json``) readable mid-run via ``repro status``.
    Multi-core cells print one ``per-core[BENCH]: ...`` line with the
    per-hart block-dispatch counts.
``status [RUNDIR] [--stale-after S] [--json]``
    Live job table for a telemetry run — one row per job with
    lifecycle state, attempt count, heartbeat age, queue wait and
    wall time.  Works while the run is in flight; a running job
    whose worker stopped heartbeating is flagged ``stalled``.
    RUNDIR defaults to the most recent run under the default
    telemetry root (a telemetry root is also accepted).
``report [RUNDIR] [--json]``
    Summarize a finished run from its ``run-report.json``: outcome
    and retry counts, total/median wall seconds, queue waits,
    per-mode wall-clock split, and straggler jobs.
``profile BENCH [--policy KEY] [--size SIZE] [--top N]
[--flamegraph FILE] [--chrome FILE] [--json]``
    Run one fresh simulation with the hot-block profiler enabled
    and print the top-N superblocks by self time — per-tier
    dispatch counts, translation cost, and tier-promotion
    attribution.  ``--flamegraph`` writes collapsed stacks for
    flamegraph.pl / speedscope; ``--chrome`` exports the spans as a
    Chrome trace.
``trace BENCH --out trace.json [--policy KEY] [--size SIZE]
[--cores N] [--events FILE.jsonl]``
    Re-simulate with the structured tracer attached and export a
    Chrome-trace file (open in ``chrome://tracing`` or
    https://ui.perfetto.dev): mode-switch spans, per-interval
    sampler decisions, VM-statistic counter tracks.  Multi-core runs
    get one decision/timing track per core.
``figure NAME``
    Regenerate one of the paper's tables/figures (table1, table2,
    fig2, fig4, fig5, fig6, fig7, fig8, fig9), the ``parallel``
    multi-core suite table, or the ``frontier`` accuracy-vs-cost
    Pareto sweep over the whole policy zoo.
``bench [--suite hotpath|checkpoint|frontier|megablock] [--size S[,S]]
[--benchmarks a,b] [--repeats N]
[--check | --update-baseline] [--baseline FILE] [--out FILE]
[--tolerance F] [--record-history] [--history FILE] [--json]``
    Performance benchmarks backing the CI perf gates, one entry each
    in ``repro.harness.bench.SUITES``.  ``hotpath`` (default): fused
    fast path vs the ``REPRO_SLOW_PATH=1`` interpreter oracle, per
    mode and suite size.  ``checkpoint``: warm-vs-cold
    checkpoint-store wall clock of the SimPoint policies (absolute
    floors: restore-policy geomean speedup and delta-snapshot ratio).
    ``frontier``: modeled accuracy-vs-cost sweep over the whole
    policy zoo (absolute floor: policy coverage; per-policy
    accuracy-drift bound).  ``megablock``: chained-dispatch megablock
    tier vs the fused tier on the loop-dominated suite (absolute
    floor: overall speedup geomean).  Each is gated against its
    committed ``benchmarks/BENCH_<suite>.json``: ``--check`` fails on
    a >25% ratio regression; ``--update-baseline`` rewrites the file.
    ``--record-history`` appends this run's ratio metrics as a dated
    entry to ``benchmarks/HISTORY.jsonl``; with ``--check`` the gate
    also compares against the rolling median of the recorded
    trajectory, catching slow drift a single-point baseline misses.
``exec FILE.s``
    Assemble a Z64 source file, run it on the VM, print its console
    output and exit code.
``lint [--root DIR] [--baseline FILE] [--no-baseline]
[--fix-baseline] [--annotations] [--json] [--out FILE]``
    Determinism & safety analyzer (rules REPRO001-004): custom AST
    lint over the ``repro`` tree, gated by the committed
    ``lint-baseline.json``.  Exit 1 on new findings;
    ``--fix-baseline`` regenerates the baseline from the current
    tree.  ``--annotations`` audits every ``# repro:`` escape hatch
    instead (file:line, kind, justification).
``verify-codegen [--corpus tiny|small] [--benchmarks a,b] [--json]
[--out FILE]``
    Symbolic codegen verifier: run the megablock corpus with the
    translator capture seam open and prove every generated
    superblock and megablock (five tiers: fast, event, fused-timed,
    fused-warm, mega-inline) equivalent to the ISA semantics of its
    instructions.  Exit 1 on any semantic
    divergence; ``--json`` prints per-tier counts and findings with
    minimized exit-diff traces.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.harness import make_spec, run_policy
from repro.sampling import accuracy_error, speedup


def _cmd_list(_args) -> int:
    from repro.harness import FIGURE5_POLICIES
    from repro.workloads import (PARALLEL_BENCHMARKS,
                                 PARALLEL_DESCRIPTIONS, SPEC2000,
                                 SUITE_ORDER, default_benchmark_cores)
    print("benchmarks (paper Table 2):")
    for name in SUITE_ORDER:
        spec = SPEC2000[name]
        print(f"  {name:10s} ref={spec.ref_input:15s} "
              f"{spec.paper_billions:>4}G instr, "
              f"{spec.paper_simpoints:>3} simpoints")
    print("\nparallel benchmarks (multi-core guests; --cores N):")
    for name, factory in PARALLEL_BENCHMARKS.items():
        workload = factory("tiny")
        print(f"  {name:10s} ref={workload.ref_input:15s} "
              f"default {default_benchmark_cores(name)} cores -- "
              f"{PARALLEL_DESCRIPTIONS.get(name, '')}")
    print("\npolicy keys: full, smarts, simpoint, simpoint+prof,")
    print("  simpoint-ckpt, simpoint-mav (MAV-augmented BBVs),")
    print("  stratified / stratified-N (two-phase stratified, "
          "N timed intervals),")
    print("  rankedset / rankedset-N (ranked-set, N subsample "
          "cycles),")
    print("  VAR-SENS-LEN-MAXF (e.g. " + ", ".join(
        p for p in FIGURE5_POLICIES if "-" in p) + ")")
    print("  sizes: tiny, small (default), paper")
    return 0


def _verbose_tracer(label: str = "", to_stderr: bool = False):
    from repro.obs import DecisionLogSink, Tracer
    stream = sys.stderr if to_stderr else None
    return Tracer(DecisionLogSink(stream=stream, label=label))


def _result_json(result, comparison=None) -> dict:
    """Machine-readable record for ``--json`` output."""
    extra = result.extra or {}
    payload = {
        "benchmark": result.benchmark,
        "policy": result.policy,
        "ipc": result.ipc,
        "timed_intervals": result.timed_intervals,
        "timed_fraction": result.timed_fraction,
        "mode_breakdown": {
            "instructions": {
                "fast": result.fast_instructions,
                "profile": result.profile_instructions,
                "warming": result.warming_instructions,
                "timed": result.timed_instructions,
                "total": result.total_instructions,
            },
            "wall_seconds": extra.get("wall_seconds_by_mode"),
        },
        "wall_seconds": result.wall_seconds,
        "modeled_seconds": result.modeled_seconds,
        "vm_stats": extra.get("vm_stats"),
    }
    if extra.get("cores"):
        payload["cores"] = extra["cores"]
    if comparison is not None:
        payload["vs_full"] = comparison
    return payload


def _progress_printer(stream=None):
    """One stderr line per finished job: the engine progress hook."""
    stream = stream or sys.stderr

    def report(job_result, done, total):
        spec = job_result.spec
        if job_result.cached:
            status = "cached"
        elif job_result.ok:
            status = f"ok {job_result.wall_seconds:.1f}s"
            if job_result.attempts > 1:
                status += f" (attempt {job_result.attempts})"
        else:
            status = f"FAILED: {job_result.error}"
        print(f"[{done}/{total}] {spec.job_id:40s} {status}",
              file=stream, flush=True)

    return report


def _event_printer(stream=None):
    """Dispatch-time stderr lines: jobs visible when they *start*
    (and when a crashed worker is retried), not only when they land —
    the engine ``on_event`` hook."""
    stream = stream or sys.stderr

    def on_event(event):
        if event.kind == "started":
            print(f"[start] {event.spec.job_id}", file=stream,
                  flush=True)
        elif event.kind == "retrying":
            print(f"[retry] {event.spec.job_id} "
                  f"(attempt {event.attempt})", file=stream, flush=True)

    return on_event


def _print_failures(failures) -> None:
    from repro.exec import format_failure_summary
    print(format_failure_summary(failures), file=sys.stderr)


def _cmd_run(args) -> int:
    from repro.exec import ExperimentEngine, failed_jobs
    engine = ExperimentEngine(
        jobs=args.jobs,
        progress=_progress_printer() if (args.jobs or 0) > 1 else None)
    spec = make_spec(args.benchmark, args.policy, args.size,
                     cores=args.cores)
    needs_full = args.policy != "full"
    full_spec = (make_spec(args.benchmark, "full", args.size,
                           cores=args.cores)
                 if needs_full else None)
    outcomes = {}
    if args.verbose:
        # with --json the decision log goes to stderr so stdout stays
        # machine-parseable
        tracer = _verbose_tracer(to_stderr=args.json)
        result = run_policy(args.benchmark, args.policy,
                            size=args.size, tracer=tracer,
                            cores=args.cores)
        if needs_full:
            outcomes = engine.run([full_spec])
    elif args.no_cache:
        # --no-cache applies to the requested policy only; the full
        # baseline still comes from (and feeds) the result store
        outcomes = engine.run([spec], use_cache=False)
        if needs_full:
            outcomes.update(engine.run([full_spec]))
    else:
        specs = [spec] + ([full_spec] if needs_full else [])
        outcomes = engine.run(specs)
    failures = failed_jobs(outcomes)
    if failures:
        _print_failures(failures)
        return 1
    if not args.verbose:
        result = outcomes[spec.key].result
    comparison = None
    if needs_full:
        full = outcomes[full_spec.key].result
        comparison = {
            "error": accuracy_error(result.ipc, full.ipc),
            "speedup": speedup(full.modeled_seconds,
                               result.modeled_seconds),
        }
    if args.json:
        print(json.dumps(_result_json(result, comparison), indent=2))
        return 0
    from repro.analysis import format_run_summary
    print(format_run_summary(result))
    if comparison is not None:
        print(f"vs full   : error {comparison['error'] * 100:.2f}%, "
              f"speedup {comparison['speedup']:.1f}x")
    return 0


def _cmd_suite(args) -> int:
    from repro.exec import (ExperimentEngine, failed_jobs,
                            merge_job_events)
    from repro.harness import default_benchmarks, normalize_policy
    names = (args.benchmarks.split(",") if args.benchmarks
             else default_benchmarks())
    policy = normalize_policy(args.policy)

    tracer_factory = None
    if args.verbose:
        # one live decision log per policy job; the full baselines
        # stay cache-served.  Tracers force the serial backend.
        def tracer_factory(spec):
            if spec.policy == "full" and policy != "full":
                return None
            return _verbose_tracer(label=spec.benchmark,
                                   to_stderr=args.json)

    telemetry_root = None
    if args.telemetry:
        from repro.obs import telemetry as telemetry_mod
        telemetry_root = (telemetry_mod.default_telemetry_root()
                          if args.telemetry == "auto"
                          else args.telemetry)
    engine = ExperimentEngine(
        jobs=args.jobs, timeout=args.timeout,
        trace_dir=args.trace or None, tracer_factory=tracer_factory,
        progress=_progress_printer(),
        telemetry_dir=telemetry_root,
        on_event=_event_printer() if telemetry_root else None)
    specs = [make_spec(name, key, args.size, cores=args.cores)
             for name in names for key in dict.fromkeys(["full", policy])]
    outcomes = engine.run(specs, force=args.force)
    if engine.telemetry_run_dir is not None:
        # also where run-report.json now lives; `repro status` /
        # `repro report` with no argument find this run automatically
        print(f"telemetry: {engine.telemetry_run_dir}",
              file=sys.stderr)
    failures = failed_jobs(outcomes)
    if failures:
        _print_failures(failures)
        print(f"{len(failures)} job(s) failed; re-invoke to retry "
              "(completed cells are kept in the result store)",
              file=sys.stderr)
        return 1
    if args.trace:
        events = merge_job_events(args.trace)
        from repro.obs import write_jsonl
        merged = f"{args.trace}/merged.jsonl"
        write_jsonl(events, merged)
        print(f"trace: {len(events)} events from "
              f"{len(outcomes)} jobs merged into {merged}",
              file=sys.stderr)

    served = sum(1 for outcome in outcomes.values() if outcome.cached)
    restored = sum(
        (outcome.result.extra.get("checkpoints") or {}).get("restores", 0)
        for outcome in outcomes.values()
        if outcome.result is not None and outcome.result.extra)
    if not args.json:
        # parseable resume evidence (CI greps these lines to prove the
        # second invocation was served from the result store and that a
        # forced re-run fast-forwarded via the checkpoint ladder)
        print(f"served-from-store: {served}/{len(outcomes)}")
        print(f"restored-from-checkpoint: {restored}")

    errors = []
    full_seconds = 0.0
    policy_seconds = 0.0
    rows = []
    for name in names:
        full = outcomes[make_spec(name, "full", args.size,
                                  cores=args.cores).key].result
        result = outcomes[make_spec(name, policy, args.size,
                                    cores=args.cores).key].result
        error = accuracy_error(result.ipc, full.ipc)
        errors.append(error)
        full_seconds += full.modeled_seconds
        policy_seconds += result.modeled_seconds
        if args.json:
            rows.append(_result_json(result, {
                "error": error,
                "speedup": speedup(full.modeled_seconds,
                                   result.modeled_seconds)}))
        else:
            print(f"{name:10s} ipc={result.ipc:7.4f} "
                  f"full={full.ipc:7.4f} err={error * 100:6.2f}%")
            per_core = (result.extra or {}).get("cores")
            if per_core:
                dispatches = [stats.get("block_dispatches", 0)
                              for stats in per_core.get("vm_stats", [])]
                print(f"per-core[{name}]: cores={per_core.get('n')} "
                      f"block_dispatches={dispatches}")
    mean_error = sum(errors) / len(errors)
    suite_speedup = speedup(full_seconds, policy_seconds)
    if args.json:
        print(json.dumps({
            "policy": args.policy,
            "size": args.size,
            "benchmarks": rows,
            "mean_error": mean_error,
            "speedup": suite_speedup,
            "served_from_store": served,
            "restored_from_checkpoint": restored,
            "jobs_total": len(outcomes),
        }, indent=2))
        return 0
    print(f"\nmean error {mean_error * 100:.2f}%  "
          f"suite speedup {suite_speedup:.1f}x")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import (RingBufferSink, Tracer, decision_timeline,
                           export_chrome_trace, mode_spans, write_jsonl)
    sink = RingBufferSink(capacity=args.buffer)
    result = run_policy(args.benchmark, args.policy, size=args.size,
                        tracer=Tracer(sink), cores=args.cores)
    events = sink.events
    records = export_chrome_trace(events, args.out)
    if args.events:
        write_jsonl(events, args.events)
    print(f"benchmark : {result.benchmark}")
    print(f"policy    : {result.policy}")
    print(f"IPC       : {result.ipc:.4f}")
    print(f"events    : {sink.written} captured "
          f"({sink.evicted} evicted), "
          f"{len(mode_spans(events))} mode spans, "
          f"{len(decision_timeline(events))} decisions")
    print(f"chrome    : {args.out} ({records} records) — open in "
          "chrome://tracing or https://ui.perfetto.dev")
    if args.events:
        print(f"jsonl     : {args.events}")
    return 0


def _cmd_figure(args) -> int:
    from repro import harness
    builders = {
        "table1": harness.build_table1,
        "table2": harness.build_table2,
        "fig2": harness.build_figure2,
        "fig4": harness.build_figure4,
        "fig5": harness.build_figure5,
        "fig6": harness.build_figure6,
        "fig7": harness.build_figure7,
        "fig8": harness.build_figure8,
        "fig9": harness.build_figure9,
        "parallel": harness.build_parallel_figure,
        "frontier": harness.build_frontier,
    }
    if args.name not in builders:
        print(f"unknown figure {args.name!r}; "
              f"choose from {sorted(builders)}", file=sys.stderr)
        return 2
    text, _ = builders[args.name]()
    print(text)
    return 0


def _cmd_bench(args) -> int:
    from repro.harness import bench, history
    payload = bench.run_bench(
        args.suite, sizes=[size for size in args.size.split(",") if size],
        benchmarks=[name for name in args.benchmarks.split(",") if name],
        repeats=args.repeats or 0)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(bench.format_table(args.suite, payload))
    if args.out:
        bench.write_baseline(payload, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    history_path = args.history or history.DEFAULT_HISTORY
    entries = history.load_history(history_path)
    entries.append(history.make_entry(args.suite, payload))
    if args.record_history:
        count = history.append_history(history_path, entries[-1])
        print(f"history: entry {count} appended to {history_path}",
              file=sys.stderr)
    baseline_path = args.baseline or bench.SUITES[args.suite].baseline
    if args.update_baseline:
        bench.write_baseline(payload, baseline_path)
        print(f"baseline updated: {baseline_path}", file=sys.stderr)
    if not args.check:
        return 0
    try:
        baseline = bench.load_baseline(baseline_path)
    except FileNotFoundError:
        print(f"no baseline at {baseline_path}; run with "
              "--update-baseline first", file=sys.stderr)
        return 2
    problems = bench.compare_to_baseline(args.suite, payload, baseline,
                                         tolerance=args.tolerance)
    # trajectory gate: this run vs the rolling median of the history
    problems += [f"trajectory {problem}" for problem in
                 history.detect_regressions(entries, suite=args.suite,
                                            tolerance=args.tolerance)]
    if problems:
        print("perf gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"perf gate passed (within {args.tolerance:.0%} of the baseline "
          "and of the rolling history median)", file=sys.stderr)
    return 0


def _resolve_run_dir(arg: str):
    """RUNDIR argument -> concrete run directory (or ``None``).

    Accepts a run directory, a telemetry root (picks its most recent
    run), or nothing (most recent run under the default root).
    """
    from pathlib import Path

    from repro.obs import telemetry
    if arg:
        path = Path(arg)
        if (telemetry.read_manifest(path) is not None
                or (path / telemetry.EVENTS_NAME).exists()):
            return path
        return telemetry.find_latest_run(path)
    return telemetry.find_latest_run()


def _cmd_status(args) -> int:
    from repro.obs import telemetry
    run_dir = _resolve_run_dir(args.run_dir)
    if run_dir is None:
        print("no telemetry runs found; start one with "
              "`repro suite --telemetry` (or pass a run directory)",
              file=sys.stderr)
        return 2
    rows = telemetry.job_status_rows(run_dir,
                                     stale_after=args.stale_after)
    if args.json:
        print(json.dumps({"run_dir": str(run_dir), "jobs": rows},
                         indent=2, sort_keys=True))
        return 0
    print(f"run: {run_dir}")
    manifest = telemetry.read_manifest(run_dir)
    if manifest:
        print(f"backend {manifest.get('backend', '?')} "
              f"(--jobs {manifest.get('parallel_jobs', '?')}), "
              f"{len(manifest.get('jobs', []))} job(s) in manifest")
    if not rows:
        print("no lifecycle events yet")
        return 0
    print(telemetry.format_status_table(rows))
    return 0


def _format_report(report) -> str:
    retries = report.get("retries", 0)
    lines = [
        f"run     : {report.get('run_id') or '?'}",
        f"backend : {report.get('backend', '?')} "
        f"(--jobs {report.get('parallel_jobs', '?')})",
        f"jobs    : {report.get('jobs_total', 0)} total -- "
        f"{report.get('ok', 0)} ok, {report.get('failed', 0)} failed, "
        f"{report.get('cached', 0)} cached"
        + (f", {retries} crash retry attempt(s)" if retries else ""),
        f"wall    : {report.get('wall_seconds_total', 0.0):.1f}s "
        f"total, median fresh "
        f"{report.get('median_wall_seconds', 0.0):.1f}s",
    ]
    stragglers = report.get("stragglers") or []
    if stragglers:
        lines.append(f"stragglers: {', '.join(stragglers)} "
                     "(>2x median fresh wall time)")
    lines.append("")
    lines.append(f"{'job':<34} {'status':<7} {'att':>3} {'wall':>8} "
                 f"{'q-wait':>7}  detail")
    for job in report.get("jobs", []):
        queue_wait = job.get("queue_wait_seconds")
        by_mode = job.get("wall_seconds_by_mode") or {}
        detail = " ".join(f"{mode}={by_mode[mode]:.2f}s"
                          for mode in sorted(by_mode))
        if job.get("cached"):
            detail = "(cached)"
        if job.get("error"):
            detail = str(job["error"])
        if job.get("straggler"):
            detail = f"STRAGGLER {detail}".rstrip()
        lines.append(
            f"{job.get('job', '?'):<34} {job.get('status', '?'):<7} "
            f"{job.get('attempts', 1):>3} "
            f"{job.get('wall_seconds', 0.0):>7.1f}s "
            f"{'-' if queue_wait is None else f'{queue_wait:.1f}s':>7}"
            f"  {detail}")
    return "\n".join(lines)


def _cmd_report(args) -> int:
    from repro.obs import telemetry
    run_dir = _resolve_run_dir(args.run_dir)
    if run_dir is None:
        print("no telemetry runs found; start one with "
              "`repro suite --telemetry` (or pass a run directory)",
              file=sys.stderr)
        return 2
    report = telemetry.read_report(run_dir)
    if report is None:
        print(f"{run_dir} has no {telemetry.REPORT_NAME} yet — run "
              "still in flight, or killed before the engine wrote "
              "it; live status:", file=sys.stderr)
        rows = telemetry.job_status_rows(run_dir)
        print(telemetry.format_status_table(rows) if rows
              else "no lifecycle events", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(_format_report(report))
    return 0


def _cmd_profile(args) -> int:
    from repro.exec import execute_spec
    from repro.obs import (disable_profiling, enable_profiling,
                           export_chrome_trace)
    profiler = enable_profiling()
    profiler.reset()
    try:
        # execute_spec directly: always a fresh simulation (never
        # served from the result store), so every block the run
        # touches is translated — and therefore wrapped — here
        result = execute_spec(make_spec(args.benchmark, args.policy,
                                        args.size))
    finally:
        disable_profiling()
    summary = profiler.summary()
    if args.json:
        print(json.dumps({
            "benchmark": result.benchmark,
            "policy": result.policy,
            "ipc": result.ipc,
            "summary": summary,
            "top_blocks": [record.to_dict() for record in
                           profiler.top_blocks(args.top)],
            "promoted_pcs": [hex(pc) for pc in
                             profiler.promoted_pcs()],
        }, indent=2, sort_keys=True))
    else:
        print(f"benchmark : {result.benchmark}")
        print(f"policy    : {result.policy}")
        print(f"IPC       : {result.ipc:.4f}")
        print(f"profiled  : {summary['blocks']} (pc, tier) blocks, "
              f"{summary['dispatches']} dispatches, "
              f"{summary['self_seconds']:.3f}s self time, "
              f"{summary['translate_seconds']:.3f}s translating")
        promoted = profiler.promoted_pcs()
        if promoted:
            shown = ", ".join(hex(pc) for pc in promoted[:8])
            more = ("" if len(promoted) <= 8
                    else f" (+{len(promoted) - 8} more)")
            print(f"promoted  : {len(promoted)} block(s) reached a "
                  f"fused tier: {shown}{more}")
        print()
        print(profiler.format_table(args.top))
    if args.flamegraph:
        lines = profiler.collapsed_stacks()
        with open(args.flamegraph, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"flamegraph: {args.flamegraph} ({len(lines)} collapsed "
              "stacks) — feed to flamegraph.pl or speedscope",
              file=sys.stderr)
    if args.chrome:
        records = export_chrome_trace(profiler.trace_events(),
                                      args.chrome)
        print(f"chrome    : {args.chrome} ({records} records) — open "
              "in chrome://tracing or https://ui.perfetto.dev",
              file=sys.stderr)
    return 0


def _cmd_exec(args) -> int:
    from repro.isa import assemble
    from repro.kernel import boot
    with open(args.file) as handle:
        source = handle.read()
    system = boot(assemble(source))
    executed = system.run_to_completion()
    output = system.output
    if output:
        print(output, end="" if output.endswith("\n") else "\n")
    print(f"[{executed} instructions, exit code {system.exit_code}]")
    return system.exit_code & 0x7F


def _cmd_verify_codegen(args) -> int:
    from repro.analysis import verifyreport
    benchmarks = (args.benchmarks.split(",") if args.benchmarks
                  else None)

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    report = verifyreport.run_corpus(corpus=args.corpus,
                                     benchmarks=benchmarks,
                                     progress=progress)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # lint owns its argparse (usable standalone in CI); delegate
        # before the main parser so its flags never collide
        from repro.analysis.lint import main as lint_main
        return lint_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ISPASS'07 Dynamic Sampling reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("lint", help="determinism & safety analyzer "
                                "(REPRO001-004)")

    sub.add_parser("list", help="list benchmarks and policies")

    run_parser = sub.add_parser("run", help="run one policy")
    run_parser.add_argument("benchmark")
    run_parser.add_argument("--policy", default="CPU-300-1M-inf")
    run_parser.add_argument("--size", default="small")
    run_parser.add_argument("--cores", type=int, default=None,
                            help="guest hart count (default: the "
                                 "benchmark's own — 1 for SPEC, 2 for "
                                 "the parallel suite)")
    run_parser.add_argument("--no-cache", action="store_true")
    run_parser.add_argument("--jobs", type=int, default=None,
                            help="worker processes (default: "
                                 "REPRO_JOBS or 1 = serial)")
    run_parser.add_argument("--json", action="store_true",
                            help="machine-readable output")
    run_parser.add_argument("--verbose", action="store_true",
                            help="live per-interval decision log "
                                 "(forces a fresh simulation)")

    suite_parser = sub.add_parser("suite", help="run a policy over "
                                                "the suite")
    suite_parser.add_argument("--policy", default="CPU-300-1M-inf")
    suite_parser.add_argument("--size", default="small")
    suite_parser.add_argument("--benchmarks", default="")
    suite_parser.add_argument("--cores", type=int, default=None,
                              help="guest hart count for every "
                                   "benchmark (default: each "
                                   "benchmark's own)")
    suite_parser.add_argument("--jobs", type=int, default=None,
                              help="worker processes (default: "
                                   "REPRO_JOBS or 1 = serial)")
    suite_parser.add_argument("--timeout", type=float, default=None,
                              help="per-job timeout in seconds")
    suite_parser.add_argument("--force", action="store_true",
                              help="re-run cells already in the "
                                   "result store")
    suite_parser.add_argument("--trace", default="",
                              help="directory for per-job JSONL "
                                   "traces (+ merged.jsonl)")
    suite_parser.add_argument("--telemetry", nargs="?", const="auto",
                              default="",
                              help="write run telemetry (lifecycle "
                                   "events, heartbeats, run report) "
                                   "under DIR; no DIR = the default "
                                   "telemetry root. Watch with "
                                   "`repro status`")
    suite_parser.add_argument("--json", action="store_true",
                              help="machine-readable output")
    suite_parser.add_argument("--verbose", action="store_true",
                              help="live per-interval decision log")

    trace_parser = sub.add_parser("trace", help="run with the tracer "
                                                "and export Chrome "
                                                "trace")
    trace_parser.add_argument("benchmark")
    trace_parser.add_argument("--policy", default="CPU-300-1M-inf")
    trace_parser.add_argument("--size", default="small")
    trace_parser.add_argument("--cores", type=int, default=None,
                              help="guest hart count (default: the "
                                   "benchmark's own)")
    trace_parser.add_argument("--out", required=True,
                              help="Chrome-trace JSON output path")
    trace_parser.add_argument("--events", default="",
                              help="also dump raw events as JSONL")
    trace_parser.add_argument("--buffer", type=int, default=1_000_000,
                              help="event ring-buffer capacity")

    figure_parser = sub.add_parser("figure", help="regenerate a "
                                                  "table/figure")
    figure_parser.add_argument("name")

    exec_parser = sub.add_parser("exec", help="assemble and run a "
                                              "guest program")
    exec_parser.add_argument("file")

    bench_parser = sub.add_parser("bench", help="perf benchmarks / "
                                                "CI perf gates")
    bench_parser.add_argument("--suite", default="hotpath",
                              choices=("hotpath", "checkpoint",
                                       "frontier", "megablock"),
                              help="hotpath: fused fast path vs "
                                   "interpreter oracle; checkpoint: "
                                   "warm vs cold checkpoint store; "
                                   "frontier: modeled accuracy-vs-"
                                   "cost sweep over the policy zoo; "
                                   "megablock: chained-dispatch tier "
                                   "vs the fused tier")
    bench_parser.add_argument("--size", default="",
                              help="suite size(s), comma-separated; "
                                   "default tiny (hotpath, frontier), "
                                   "small (megablock) or paper "
                                   "(checkpoint)")
    bench_parser.add_argument("--benchmarks", default="",
                              help="comma-separated benchmark subset")
    bench_parser.add_argument("--repeats", type=int, default=None,
                              help="wall-clock suites: probes per cell "
                                   "(best-of-N)")
    gate_mode = bench_parser.add_mutually_exclusive_group()
    gate_mode.add_argument("--check", action="store_true",
                           help="compare against the committed "
                                "baseline; exit 1 on regression")
    gate_mode.add_argument("--update-baseline", action="store_true",
                           help="rewrite the committed baseline "
                                "from this run")
    bench_parser.add_argument("--baseline", default="",
                              help="baseline JSON path (default: the "
                                   "suite's committed benchmarks/ "
                                   "file)")
    bench_parser.add_argument("--out", default="",
                              help="also write this run's payload here")
    bench_parser.add_argument("--tolerance", type=float, default=0.25,
                              help="allowed fractional speedup "
                                   "regression (default 0.25)")
    bench_parser.add_argument("--record-history", action="store_true",
                              help="append this run's ratio metrics "
                                   "as a dated entry to the history "
                                   "file")
    bench_parser.add_argument("--history", default="",
                              help="history JSONL path (default: "
                                   "benchmarks/HISTORY.jsonl)")
    bench_parser.add_argument("--json", action="store_true",
                              help="machine-readable output")

    verify_parser = sub.add_parser(
        "verify-codegen",
        help="symbolically prove every generated block and megablock "
             "(five tiers) against the ISA")
    verify_parser.add_argument("--corpus", default="tiny",
                               choices=("tiny", "small"),
                               help="benchmark windows to run "
                                    "(default tiny)")
    verify_parser.add_argument("--benchmarks", default="",
                               help="comma-separated benchmark subset "
                                    "(default: the megablock suite)")
    verify_parser.add_argument("--json", action="store_true",
                               help="machine-readable findings")
    verify_parser.add_argument("--out", default="",
                               help="also write the JSON report here")

    from repro.obs.telemetry import STALE_AFTER
    status_parser = sub.add_parser("status", help="live job table "
                                                  "for a telemetry "
                                                  "run")
    status_parser.add_argument("run_dir", nargs="?", default="",
                               help="run directory or telemetry root "
                                    "(default: the most recent run "
                                    "under the default root)")
    status_parser.add_argument("--stale-after", type=float,
                               default=STALE_AFTER,
                               help="seconds without a heartbeat "
                                    "before a running job is flagged "
                                    f"stalled (default {STALE_AFTER:g})")
    status_parser.add_argument("--json", action="store_true",
                               help="machine-readable output")

    report_parser = sub.add_parser("report", help="summarize a "
                                                  "finished run from "
                                                  "its run report")
    report_parser.add_argument("run_dir", nargs="?", default="",
                               help="run directory or telemetry root "
                                    "(default: the most recent run "
                                    "under the default root)")
    report_parser.add_argument("--json", action="store_true",
                               help="print run-report.json verbatim")

    profile_parser = sub.add_parser("profile", help="hot-block "
                                                    "profile of one "
                                                    "fresh run")
    profile_parser.add_argument("benchmark")
    profile_parser.add_argument("--policy", default="CPU-300-1M-inf")
    profile_parser.add_argument("--size", default="small")
    profile_parser.add_argument("--top", type=int, default=20,
                                help="rows in the hot-block table")
    profile_parser.add_argument("--flamegraph", default="",
                                help="write collapsed stacks here "
                                     "(flamegraph.pl / speedscope "
                                     "input)")
    profile_parser.add_argument("--chrome", default="",
                                help="write profile spans as a "
                                     "Chrome-trace JSON file")
    profile_parser.add_argument("--json", action="store_true",
                                help="machine-readable output")

    args = parser.parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run, "suite": _cmd_suite,
                "trace": _cmd_trace, "figure": _cmd_figure,
                "exec": _cmd_exec, "bench": _cmd_bench,
                "status": _cmd_status, "report": _cmd_report,
                "profile": _cmd_profile,
                "verify-codegen": _cmd_verify_codegen}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
