"""``python -m repro obs`` — observe one run end to end.

Runs one workload with the full observability stack attached (metrics
registry, lifecycle timeline, cycle profiler), prints the attribution
breakdown, reconciles the observed lifecycle against ``SystemStats``
totals (non-zero exit on mismatch — the acceptance contract), and
optionally writes a validated Chrome trace-event JSON for Perfetto.

``--overhead-check`` instead times the same request with and without
instrumentation (best of N wall-clock) and fails when the instrumented
run's simulated-ops-per-second falls below ``1/limit`` of baseline —
the CI perf-smoke gate invokes this with the default 2x limit
(``--format json`` emits the measured ratio + threshold for archiving).

Subcommands of the regression observatory:

``obs diff A B``      differential attribution between two digest
                      sources (files or history refs like ``HEAD~1``)
``obs whatif``        causal what-if profiler (:mod:`repro.obs.whatif`)
``obs history``       list/export the cross-run digest history store
"""

from __future__ import annotations

# lint-file-ok: RL005 (sweep-engine and exporter stacks load lazily so obs --help stays fast, like the bench/analyze CLIs)

import argparse
import json
import sys
import time

from .profile import attribute, digest, format_breakdown, format_hot_lines
from .timeline import build_timeline


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="run one workload fully instrumented: metrics, "
                    "transaction timeline, simulated-cycle profile")
    parser.add_argument("workload",
                        help="suite benchmark or adversarial workload "
                             "(e.g. contended-list)")
    parser.add_argument("--backend", "--system", dest="system",
                        default="hmtx",
                        help="system label or registered backend "
                             "(default hmtx)")
    parser.add_argument("--paradigm", default=None,
                        help="force a parallelisation paradigm")
    parser.add_argument("--policy", default=None,
                        help="txctl retry policy name")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0)")
    parser.add_argument("--timeline", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON "
                             "(Perfetto-loadable)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--gantt", action="store_true",
                        help="render the terminal Gantt view")
    parser.add_argument("--gantt-width", type=int, default=72)
    parser.add_argument("--top", type=int, default=5,
                        help="hot-line table size (default 5)")
    parser.add_argument("--metrics", action="store_true",
                        help="also dump the full metrics registry")
    parser.add_argument("--overhead-check", action="store_true",
                        help="time instrumented vs uninstrumented and "
                             "assert the overhead bound")
    parser.add_argument("--overhead-limit", type=float, default=2.0,
                        help="max allowed wall-clock slowdown factor "
                             "(default 2.0)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of-N runs for --overhead-check")
    parser.add_argument("--history", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="append this run's obs digest to the "
                             "cross-run history store (default dir "
                             ".obs-history when no DIR given)")
    return parser


def _overhead_check(request, repeat: int, limit: float,
                    fmt: str = "text") -> int:
    from ..experiments.engine import observed_run, run_request
    baseline = instrumented = float("inf")
    ops = 0
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        _, result = run_request(request)
        baseline = min(baseline, time.perf_counter() - start)
        ops = result.run.ops_executed
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        session, _, _ = observed_run(request)
        instrumented = min(instrumented, time.perf_counter() - start)
    slowdown = instrumented / baseline if baseline > 0 else 1.0
    base_rate = ops / baseline if baseline > 0 else 0.0
    inst_rate = ops / instrumented if instrumented > 0 else 0.0
    ok = slowdown <= limit
    if fmt == "json":
        # The one legitimately wall-clock artifact: it *measures* the
        # profiler's wall overhead, so the CI gate can archive the ratio
        # it enforced alongside the pass/fail threshold.
        print(json.dumps({
            "schema": "hmtx-obs-overhead/1",
            "workload": request.workload,
            "system": request.system,
            "repeat": max(1, repeat),
            "ops_executed": ops,
            "uninstrumented_ops_per_sec": round(base_rate),
            "instrumented_ops_per_sec": round(inst_rate),
            "slowdown": round(slowdown, 3),
            "limit": limit,
            "ok": ok,
        }, indent=2, sort_keys=True))
    else:
        print(f"overhead-check {request.workload}/{request.system}: "
              f"uninstrumented {base_rate:,.0f} ops/s, "
              f"instrumented {inst_rate:,.0f} ops/s, "
              f"slowdown {slowdown:.2f}x (limit {limit:.1f}x) "
              f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def diff_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs diff",
        description="differential digest attribution between two runs: "
                    "paths (digest/report/bundle/sweep JSON) or history "
                    "refs (HEAD, HEAD~N, gen:N, git:LABEL)")
    parser.add_argument("a", help="before: path or history ref")
    parser.add_argument("b", help="after: path or history ref")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="history store for ref sources "
                             "(default .obs-history)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the hmtx-obs-diff/1 artifact")
    parser.add_argument("--top", type=int, default=3,
                        help="phases per pair in the text report "
                             "(default 3)")
    parser.add_argument("--check-zero", action="store_true",
                        help="exit non-zero unless the diff is exactly "
                             "zero (CI determinism gate)")
    args = parser.parse_args(argv)
    from .diff import diff_bundles, format_diff, load_entries, render_json
    from .history import DEFAULT_ROOT, HistoryStore
    store = HistoryStore(args.store or DEFAULT_ROOT)
    try:
        bundle_a = load_entries(args.a, store)
        bundle_b = load_entries(args.b, store)
    except (KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"obs diff: {message}", file=sys.stderr)
        return 2
    artifact = diff_bundles(bundle_a, bundle_b)
    if args.format == "json":
        print(render_json(artifact), end="")
    else:
        print(format_diff(artifact, top=args.top))
    if args.output:
        import pathlib
        pathlib.Path(args.output).write_text(render_json(artifact),
                                             encoding="utf-8")
    if args.check_zero and not artifact["zero"]:
        return 1
    return 0


def history_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs history",
        description="list or export the cross-run obs-digest history")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="history store (default .obs-history)")
    parser.add_argument("--limit", type=int, default=10,
                        help="generations to list (default 10)")
    parser.add_argument("--ref", default="HEAD",
                        help="generation to export (default HEAD)")
    parser.add_argument("--export", default=None, metavar="FILE",
                        help="write --ref as a hmtx-obs-digests/1 bundle")
    args = parser.parse_args(argv)
    from .history import DEFAULT_ROOT, HistoryStore, format_history
    store = HistoryStore(args.store or DEFAULT_ROOT)
    if args.export:
        import pathlib
        try:
            bundle = store.export_bundle(args.ref)
        except KeyError as exc:
            print(f"obs history: {exc.args[0]}", file=sys.stderr)
            return 2
        pathlib.Path(args.export).write_text(
            json.dumps(bundle, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {args.export} ({len(bundle['entries'])} digest(s) "
              f"from {args.ref})")
        return 0
    print(format_history(store, limit=args.limit))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["diff"]:
        return diff_main(argv[1:])
    if argv[:1] == ["whatif"]:
        from .whatif import main as whatif_main
        return whatif_main(argv[1:])
    if argv[:1] == ["history"]:
        return history_main(argv[1:])
    args = _parser().parse_args(argv)
    from ..experiments.engine import RunRequest, observed_run
    request = RunRequest(workload=args.workload, system=args.system,
                         scale=args.scale, paradigm=args.paradigm,
                         policy=args.policy)
    if args.overhead_check:
        return _overhead_check(request, args.repeat, args.overhead_limit,
                               fmt=args.format)

    session, workload, result = observed_run(request)
    attribution = attribute(session)
    reconciliation = session.reconcile(result.system.stats)
    timeline = build_timeline(session, attribution)
    correct = (workload.observed_result(result.system)
               == workload.expected_result(result.system))

    if args.history is not None:
        from ..experiments.engine import snapshot
        from .history import DEFAULT_ROOT, HistoryStore
        record = snapshot(request, workload, result, 0.0,
                          obs_digest=digest(session, attribution))
        store = HistoryStore(args.history or DEFAULT_ROOT)
        appended = store.append_runs([(request, record)], source="obs")
        print(f"history: generation {appended['generation']} at "
              f"{store.root} ({appended['new_digests']} new digest(s))")

    if args.timeline:
        from .export import write_chrome_trace
        data = write_chrome_trace(
            timeline, args.timeline,
            label=f"{args.workload}/{args.system}")
        trace_note = (f"wrote {args.timeline} "
                      f"({len(data['traceEvents'])} trace events, "
                      f"validated)")
    else:
        trace_note = None

    if args.format == "json":
        report = {
            "schema": "hmtx-obs-report/1",
            "workload": args.workload,
            "system": args.system,
            "scale": args.scale,
            "paradigm": result.paradigm,
            "cycles": result.cycles,
            "correct": correct,
            "digest": digest(session, attribution, top=args.top),
            "reconcile": reconciliation,
            "metrics": session.registry.collect(),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        stats = result.system.stats
        print(f"{args.workload} on {args.system}: {result.cycles:,} cycles "
              f"({result.paradigm}); {stats.committed} commits, "
              f"{stats.aborted} aborts; result "
              f"{'correct' if correct else '*** WRONG ***'}")
        print()
        print(format_breakdown(attribution,
                               label=f"{args.workload}/{args.system}"))
        print()
        print(format_hot_lines(session, top=args.top))
        checks = reconciliation["checks"]
        print()
        print("reconciliation vs SystemStats: "
              + ("exact" if reconciliation["ok"] else "MISMATCH"))
        for name, pair in checks.items():
            marker = "==" if pair["observed"] == pair["stats"] else "!="
            print(f"  {name}: observed {pair['observed']} {marker} "
                  f"stats {pair['stats']}")
        if args.gantt:
            from .export import render_gantt
            print()
            print(render_gantt(timeline, width=args.gantt_width))
        if args.metrics:
            print()
            print(session.registry.format_text())
        if trace_note:
            print()
            print(trace_note)

    ok = reconciliation["ok"] and attribution.identity_ok and correct
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - python -m repro obs is the entry
    raise SystemExit(main())
