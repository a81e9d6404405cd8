"""Wall-clock benchmark harness for the simulator's hot path.

Unlike every other driver in this package — which reports *simulated*
metrics (cycles, speedups, set sizes) — this one measures the simulator
itself: how many wall-clock seconds the Figure 8 suite and the contended
workloads take to run, and the resulting simulated-ops-per-second and
memory-accesses-per-second throughput.  It times exactly the requests the
figure drivers run (each benchmark on its calibrated branch-mix executor)
and feeds two things perfbench does not: CI's ops/sec floor against the
committed ``BENCH_hotpath.json``, and, with ``--history``, the obs digest
store that ``obs diff`` compares.

Usage::

    python -m repro bench                 # full run, writes BENCH_hotpath.json
    python -m repro bench --quick         # reduced scale (CI perf smoke)
    python -m repro bench --quick --check # fail on >30% ops/sec regression

The output file keeps one section per mode (``full``/``quick``), so a quick
CI run refreshes its own section without clobbering the committed full-run
numbers.  ``--check`` compares the fresh measurement against the same-mode
section of the committed baseline file *before* overwriting it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..workloads.contended import CapacityHogWorkload
from ..workloads.suite import BENCHMARK_NAMES
from .engine import RunRequest, SweepEngine, SweepSpec

#: Default output/baseline file, at the repository root when run from there.
DEFAULT_OUTPUT = "BENCH_hotpath.json"

#: CI regression tolerance: fail when measured ops/sec drops more than this
#: fraction below the committed same-mode baseline.
DEFAULT_TOLERANCE = 0.30

_QUICK_SCALE = 0.25


def bench_spec(quick: bool) -> SweepSpec:
    """The Figure 8 suite on HMTX plus the two contended workloads.

    The contended workloads always run at full size so their numbers
    stay mode-comparable.
    """
    scale = _QUICK_SCALE if quick else 1.0
    requests: List[RunRequest] = [
        RunRequest(workload=name, system="hmtx", scale=scale)
        for name in BENCHMARK_NAMES
    ]
    requests.append(RunRequest(
        workload="contended-list", system="hmtx", paradigm="PS-DSWP",
        policy="backoff"))
    requests.append(RunRequest(
        workload="capacity-hog", system="hmtx", paradigm="PS-DSWP",
        policy="capacity-aware", machine=CapacityHogWorkload.tiny_config()))
    return SweepSpec("bench", tuple(requests))


def _group_of(request: RunRequest) -> str:
    return "contended" if request.workload in ("contended-list",
                                               "capacity-hog") else "fig8"


def run_bench(quick: bool = False, repeat: int = 1) -> Dict:
    """Run the suite and return one mode section of the report.

    The batch runs once in each of ``repeat`` fresh in-process engines
    (an engine caches by request, so a second pass in the same one would
    time nothing); each request keeps its least wall time.
    """
    requests = bench_spec(quick).requests
    passes = [SweepEngine().run(requests) for _ in range(max(1, repeat))]
    workloads: Dict[str, Dict] = {}
    for request, records in zip(requests, zip(*passes)):
        wall = min(r.wall_seconds for r in records)
        record = records[0]
        ops = record.ops_executed
        accesses = record.l1_accesses
        workloads[request.workload] = {
            "group": _group_of(request),
            "wall_seconds": round(wall, 4),
            "simulated_cycles": record.cycles,
            "ops_executed": ops,
            "accesses": accesses,
            "sim_ops_per_sec": round(ops / wall) if wall > 0 else None,
            "accesses_per_sec": round(accesses / wall) if wall > 0 else None,
        }
    def _total(key: str, group: Optional[str] = None) -> float:
        return sum(w[key] for w in workloads.values()
                   if group is None or w["group"] == group)
    wall = _total("wall_seconds")
    ops = _total("ops_executed")
    accesses = _total("accesses")
    fig8_wall = _total("wall_seconds", "fig8")
    return {
        "mode": "quick" if quick else "full",
        "scale": _QUICK_SCALE if quick else 1.0,
        "repeat": repeat,
        "workloads": workloads,
        "totals": {
            "wall_seconds": round(wall, 4),
            "ops_executed": ops,
            "accesses": accesses,
            "ops_per_sec": round(ops / wall) if wall > 0 else None,
            "accesses_per_sec": round(accesses / wall) if wall > 0 else None,
            "fig8_wall_seconds": round(fig8_wall, 4),
            "fig8_ops_per_sec": round(_total("ops_executed", "fig8")
                                      / fig8_wall) if fig8_wall > 0 else None,
        },
    }


def check_regression(section: Dict, baseline_path: pathlib.Path,
                     tolerance: float = DEFAULT_TOLERANCE) -> Tuple[bool, str]:
    """Compare a fresh mode section against the committed baseline file.

    Returns ``(ok, message)``.  A missing baseline (or missing same-mode
    section) passes with a warning: there is nothing to regress against.
    """
    if not baseline_path.exists():
        return True, f"no baseline at {baseline_path}; skipping check"
    baseline = json.loads(baseline_path.read_text())
    ref = baseline.get("runs", {}).get(section["mode"])
    if ref is None:
        return True, (f"baseline {baseline_path} has no "
                      f"{section['mode']!r} section; skipping check")
    ref_rate = ref["totals"]["ops_per_sec"]
    rate = section["totals"]["ops_per_sec"]
    if not ref_rate or not rate:
        return True, "baseline or measurement lacks ops/sec; skipping check"
    floor = ref_rate * (1.0 - tolerance)
    msg = (f"{section['mode']} ops/sec: measured {rate:,}, baseline "
           f"{ref_rate:,}, floor {floor:,.0f} (-{tolerance:.0%})")
    if rate < floor:
        return False, "REGRESSION: " + msg
    return True, "OK: " + msg


def write_report(section: Dict, output: pathlib.Path) -> Dict:
    """Merge ``section`` into the report file, keeping other modes."""
    data: Dict = {}
    if output.exists():
        try:
            data = json.loads(output.read_text())
        except ValueError:
            data = {}
    data.setdefault("schema", "hmtx-hotpath-bench/1")
    data["python"] = platform.python_version()
    data.setdefault("runs", {})[section["mode"]] = section
    output.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def format_bench(section: Dict) -> str:
    lines = [f"hot-path bench ({section['mode']} mode, "
             f"scale {section['scale']}, best of {section['repeat']})"]
    lines.append(f"{'workload':<16} {'wall s':>8} {'sim cycles':>13} "
                 f"{'ops/s':>12} {'acc/s':>12}")
    for name, w in section["workloads"].items():
        lines.append(
            f"{name:<16} {w['wall_seconds']:>8.3f} "
            f"{w['simulated_cycles']:>13,} {w['sim_ops_per_sec']:>12,} "
            f"{w['accesses_per_sec']:>12,}")
    totals = section["totals"]
    lines.append(
        f"{'TOTAL':<16} {totals['wall_seconds']:>8.3f} {'':>13} "
        f"{totals['ops_per_sec']:>12,} {totals['accesses_per_sec']:>12,}")
    lines.append(f"fig8 suite wall: {totals['fig8_wall_seconds']:.3f}s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="measure simulator wall-clock throughput "
                    "(Figure 8 suite + contended workloads)")
    parser.add_argument("--quick", action="store_true",
                        help=f"reduced scale ({_QUICK_SCALE}) for CI smoke")
    parser.add_argument("--repeat", type=int, default=1,
                        help="best-of-N wall-clock per workload, one fresh "
                             "engine per pass (default 1)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"report file (default {DEFAULT_OUTPUT})")
    parser.add_argument("--baseline", default=None,
                        help="baseline file for --check "
                             "(default: the output file before rewriting)")
    parser.add_argument("--check", action="store_true",
                        help="fail when ops/sec regresses more than "
                             "--tolerance below the committed baseline")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional ops/sec regression "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--history", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="after timing, rerun the suite observed and "
                             "append the obs digests to the cross-run "
                             "history store (default dir .obs-history "
                             "when no DIR given)")
    args = parser.parse_args(argv)

    section = run_bench(quick=args.quick, repeat=args.repeat)
    history_note = None
    if args.history is not None:
        # Observed runs happen *after* every timed one, so attaching an
        # obs session cannot perturb the wall numbers above.
        from ..obs.history import DEFAULT_ROOT, HistoryStore  # lint-ok: RL005 (history is opt-in; keeps the obs store off the timing path)
        observed = [replace(r, observe=True)
                    for r in bench_spec(args.quick).requests]
        engine = SweepEngine()
        engine.run(observed)
        store = HistoryStore(args.history or DEFAULT_ROOT)
        appended = store.append_runs(engine.observed_pairs, source="bench")
        history_note = (f"history: generation {appended['generation']} at "
                        f"{store.root} ({appended['runs']} run(s), "
                        f"{appended['new_digests']} new digest(s))")
    output = pathlib.Path(args.output)
    baseline = pathlib.Path(args.baseline) if args.baseline else output
    ok, message = (True, "")
    if args.check:
        # Read the committed baseline before the merge below rewrites it.
        ok, message = check_regression(section, baseline, args.tolerance)
    write_report(section, output)
    print(format_bench(section))
    print(f"wrote {output}")
    if history_note:
        print(history_note)
    if args.check:
        print(message)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
