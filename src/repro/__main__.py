"""Command-line interface: regenerate artifacts and run benchmarks.

Examples::

    python -m repro list                      # what can I run?
    python -m repro fig8 --jobs 4             # one figure, 4 worker procs
    python -m repro evaluate --scale 0.5      # every table & figure
    python -m repro all --quick --jobs 2      # everything + merged report
    python -m repro run 130.li --system smtx  # one benchmark, one system
    python -m repro run ispell --trace        # with a protocol trace summary
"""

from __future__ import annotations

# lint-file-ok: RL005 (subcommands lazily import their stacks so list/help stay fast)

import argparse
import json
import os
import pathlib
import sys
import time

from .experiments import (
    BenchmarkRunner,
    contention_spec,
    format_contention_sweep,
    format_fig1,
    format_fig2,
    format_fig5,
    format_fig8,
    format_fig9,
    format_table1,
    format_table3,
    run_contention_sweep,
    run_fig1,
    run_fig2,
    run_fig5,
    run_fig8,
    run_fig9,
    run_table1,
    run_table3,
)
from .experiments.fig2_smtx_rwset import fig2_spec
from .experiments.fig8_speedup import fig8_spec
from .experiments.fig9_setsizes import fig9_spec
from .experiments.table1_stats import table1_spec
from .experiments.table3_power import table3_spec
from .workloads.suite import BENCHMARK_NAMES

_QUICK_SCALE = 0.25
_DEFAULT_REPORT = "REPORT_sweep.json"

_ARTIFACTS = {
    "contention": lambda runner: format_contention_sweep(
        run_contention_sweep(scale=runner.scale, engine=runner.engine)),
    "fig1": lambda runner: format_fig1(run_fig1()),
    "fig2": lambda runner: format_fig2(run_fig2(runner=runner)),
    "fig5": lambda runner: format_fig5(run_fig5()),
    "fig8": lambda runner: format_fig8(run_fig8(runner=runner)),
    "fig9": lambda runner: format_fig9(run_fig9(runner=runner)),
    "table1": lambda runner: format_table1(run_table1(runner=runner)),
    "table3": lambda runner: format_table3(run_table3(runner=runner)),
}

#: Request lists per artifact, for batching ahead of the drivers.  An
#: artifact without an entry (fig1, fig5) runs no engine requests.
_SPECS = {
    "contention": lambda runner: contention_spec(runner.scale).requests,
    "fig2": lambda runner: fig2_spec(runner).requests,
    "fig8": lambda runner: fig8_spec(runner).requests,
    "fig9": lambda runner: fig9_spec(runner).requests,
    "table1": lambda runner: table1_spec(runner).requests,
    "table3": lambda runner: table3_spec(runner).requests,
}


def _prefetch(runner: BenchmarkRunner, names) -> None:
    """Batch every selected artifact's runs through the engine at once —
    with ``jobs > 1`` this is where the fan-out happens; the drivers then
    read back cache hits in spec order."""
    requests = []
    for name in names:
        if name in _SPECS:
            requests.extend(_SPECS[name](runner))
    if requests:
        runner.prefetch(requests)


def _cmd_list(_args) -> int:
    print("artifacts :", ", ".join(sorted(_ARTIFACTS)),
          "+ evaluate / all (everything)")
    print("benchmarks:", ", ".join(BENCHMARK_NAMES))
    print("systems   : sequential, hmtx, smtx-minimal, smtx-substantial,"
          " smtx-maximal, oracle")
    return 0


def _cmd_artifact(args) -> int:
    runner = BenchmarkRunner(scale=args.scale, jobs=args.jobs)
    names = sorted(_ARTIFACTS) if args.artifact == "evaluate" \
        else [args.artifact]
    start = time.time()
    _prefetch(runner, names)
    for name in names:
        print(_ARTIFACTS[name](runner))
        print()
    print(f"({time.time() - start:.0f}s at scale {args.scale}, "
          f"jobs {args.jobs})")
    return 0


def _cmd_all(args) -> int:
    """Every artifact through the sweep engine, plus a merged report.

    The report file is a deterministic function of (scale, code): wall
    times and job counts stay out of it, so ``--jobs N`` output is
    byte-identical to serial (the CI sweep-smoke job diffs exactly this).
    Wall timing can be appended to a separate bench file via
    ``--bench-output``.
    """
    scale = _QUICK_SCALE if args.quick else args.scale
    runner = BenchmarkRunner(scale=scale, jobs=args.jobs)
    names = sorted(_ARTIFACTS)
    start = time.perf_counter()  # lint-ok: RL008 (wall time is printed and routed to --bench-output only, never into the deterministic report)
    _prefetch(runner, names)
    artifacts = {name: _ARTIFACTS[name](runner) for name in names}
    wall = time.perf_counter() - start  # lint-ok: RL008 (same print-only timing as above)
    report = {
        "schema": "hmtx-sweep-report/1",
        "scale": scale,
        "artifacts": artifacts,
        "records": [record.to_report() for record in runner.records()],
    }
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name in names:
        print(artifacts[name])
        print()
    print(f"wrote {output} ({wall:.1f}s at scale {scale}, "
          f"jobs {args.jobs}, {os.cpu_count()} cpus)")
    if args.bench_output:
        _record_sweep_timing(pathlib.Path(args.bench_output), args, scale,
                             wall, runner.engine.spawn_overhead_seconds)
    return 0


def _record_sweep_timing(path: pathlib.Path, args, scale: float,
                         wall: float, spawn_overhead: float = 0.0) -> None:
    """Merge this invocation's wall time into the sweep bench file."""
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data.setdefault("schema", "hmtx-sweep-bench/1")
    data["cpus"] = os.cpu_count()
    mode = "quick" if args.quick else "full"
    section = data.setdefault("runs", {}).setdefault(mode, {})
    section[f"jobs-{args.jobs}"] = {
        "wall_seconds": round(wall, 2),
        "scale": scale,
        "spawn_overhead_seconds": round(spawn_overhead, 3),
    }
    serial = section.get("jobs-1", {}).get("wall_seconds")
    if serial:
        for key, run in section.items():
            run["speedup_vs_serial"] = round(serial / run["wall_seconds"], 2)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {mode}/jobs-{args.jobs} timing in {path}")


def _cmd_run(args) -> int:
    from .experiments.engine import RunRequest, run_request
    from .obs.tap import Tap
    from .trace import ProtocolTracer, format_summary

    request = RunRequest(workload=args.benchmark, system=args.system,
                         scale=args.scale)
    tracers = [ProtocolTracer()] if args.trace else []
    with Tap(*tracers).activate():
        workload, result = run_request(request)
    stats = result.system.stats
    ok = workload.observed_result(result.system) == \
        workload.expected_result(result.system)
    print(f"{args.benchmark} on {args.system}: {result.cycles:,} cycles "
          f"({result.paradigm}); {stats.committed} transactions, "
          f"{stats.aborted} aborts; result "
          f"{'matches sequential semantics' if ok else '*** WRONG ***'}")
    for tracer in tracers:
        print(format_summary(tracer.summary()))
        tracer.detach()
    if args.stats:
        from .experiments import stats_report
        print(stats_report(result))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Hardware Multithreaded Transactions (ASPLOS 2018) "
                    "reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list artifacts, benchmarks, systems")

    for name in sorted(_ARTIFACTS) + ["evaluate"]:
        p = sub.add_parser(name, help=f"regenerate {name}"
                           if name != "evaluate" else "regenerate everything")
        p.add_argument("--scale", type=float, default=1.0,
                       help="workload size multiplier (default 1.0)")
        p.add_argument("--jobs", type=int, default=1,
                       help="sweep-engine worker processes (default 1)")
        p.set_defaults(artifact=name)

    p = sub.add_parser(
        "all", help="regenerate everything and write a merged JSON report")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier (default 1.0)")
    p.add_argument("--quick", action="store_true",
                   help=f"reduced scale ({_QUICK_SCALE}) for CI smoke")
    p.add_argument("--jobs", type=int, default=1,
                   help="sweep-engine worker processes (default 1); the "
                        "report is byte-identical for every jobs value")
    p.add_argument("--output", default=_DEFAULT_REPORT,
                   help=f"merged report file (default {_DEFAULT_REPORT})")
    p.add_argument("--bench-output", default=None,
                   help="also record this invocation's wall time "
                        "(e.g. BENCH_sweep.json)")

    p = sub.add_parser(
        "bench", add_help=False,
        help="measure simulator wall-clock throughput (BENCH_hotpath.json)")
    p.set_defaults(command="bench")

    p = sub.add_parser(
        "analyze", add_help=False,
        help="model-check the protocol, racecheck backend traces, lint")
    p.set_defaults(command="analyze")

    p = sub.add_parser(
        "obs", add_help=False,
        help="observe one run: metrics, transaction timeline, cycle profile")
    p.set_defaults(command="obs")

    p = sub.add_parser(
        "svc", add_help=False,
        help="service workloads: tail-latency artifact, adversarial "
             "search, survivor replay")
    p.set_defaults(command="svc")

    p = sub.add_parser(
        "scaling", add_help=False,
        help="topology scaling sweep: sockets x cores presets, "
             "VID-reset storm curve (REPORT_scaling.json)")
    p.set_defaults(command="scaling")

    p = sub.add_parser("run", help="run one benchmark under one system")
    p.add_argument("benchmark", choices=BENCHMARK_NAMES)
    p.add_argument("--system", default="hmtx",
                   choices=["sequential", "hmtx", "smtx-minimal",
                            "smtx-substantial", "smtx-maximal"])
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--trace", action="store_true",
                   help="attach a protocol tracer and print its summary")
    p.add_argument("--stats", action="store_true",
                   help="print the full statistics dump")

    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["bench"]:
        # bench owns its full flag set (and --help) — hand over directly.
        from .experiments.bench import main as bench_main
        return bench_main(argv[1:])
    if argv[:1] == ["analyze"]:
        # analyze owns its full flag set (and --help) too.
        from .analysis.cli import main as analyze_main
        return analyze_main(argv[1:])
    if argv[:1] == ["obs"]:
        # obs owns its full flag set (and --help) too.
        from .obs.cli import main as obs_main
        return obs_main(argv[1:])
    if argv[:1] == ["svc"]:
        # svc owns its full flag set (and --help) too.
        from .svc.cli import main as svc_main
        return svc_main(argv[1:])
    if argv[:1] == ["scaling"]:
        # scaling owns its full flag set (and --help) too.
        from .experiments.scaling_sweep import main as scaling_main
        return scaling_main(argv[1:])
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "all":
        return _cmd_all(args)
    return _cmd_artifact(args)


if __name__ == "__main__":
    raise SystemExit(main())
