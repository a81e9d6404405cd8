"""Big-iron scaling sweep: topology presets × backends × workloads.

ROADMAP item 1, built on the :mod:`repro.topology` machine model: how do
HMTX, SMTX, and the zero-cost oracle behave when the Table 2 machine
grows to 64–256 cores across sockets?  The cost-of-concurrency result in
PAPERS.md predicts the knee comes from the protocol's serialisation
points, not the core count — and for HMTX the sharpest one is the
section 4.6 VID reset: with 6-bit VIDs, 64 allocations force a
machine-wide quiesce + scrub whose stall grows with the socket count
(:meth:`~repro.topology.TopologySpec.reset_scrub_latency`).  Every run
here is observed (:mod:`repro.obs`), so the report carries per-socket
``vid_reset``/``commit_stall`` cycle attribution — the **reset-storm
curve**: remote sockets burning cycles in quiesce while the home socket
commits.

Runs go through the shared :class:`~repro.experiments.engine.SweepEngine`
and inherit its determinism contract: the report is a function of
(scale, code) only, byte-identical for every ``--jobs`` value (the CI
``scaling-smoke`` job diffs exactly this).

CLI: ``python -m repro scaling [--quick] [--jobs N] [--output FILE]``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import MachineConfig
from ..obs.profile import load_digest
from ..topology import topology_preset
from ..workloads.suite import SURVIVOR_PREFIX, workload_label
from .engine import RunRecord, RunRequest, SweepEngine, SweepSpec
from .reporting import format_table

#: Default sweep axes.  ``table2`` anchors the curve at the paper's flat
#: 4-core machine; the big-iron presets climb to 256 cores.
SCALING_PRESETS = ("table2", "2s64c", "4s128c", "4s256c")
SCALING_SYSTEMS = ("hmtx", "smtx-minimal", "oracle")
SCALING_WORKLOADS = ("130.li", "164.gzip", "svc-kv")

QUICK_WORKLOADS = ("130.li", "svc-kv")

_DEFAULT_OUTPUT = "REPORT_scaling.json"


def scaling_machine(preset: str, placement: str = "pack") -> MachineConfig:
    """The machine a preset sweeps on (directory coherence when sliced)."""
    return MachineConfig.for_topology(preset, placement=placement)


def scaling_spec(scale: float = 1.0,
                 presets: Sequence[str] = SCALING_PRESETS,
                 systems: Sequence[str] = SCALING_SYSTEMS,
                 workloads: Sequence[str] = SCALING_WORKLOADS,
                 placement: str = "pack") -> SweepSpec:
    """Every run of the sweep, preset-major (merge order = report order).

    Requests carry ``observe=True``: the per-socket attribution is the
    artifact, not an optional extra.
    """
    requests: List[RunRequest] = []
    for preset in presets:
        machine = scaling_machine(preset, placement)
        for workload in workloads:
            for system in systems:
                requests.append(RunRequest(
                    workload=workload, system=system, scale=scale,
                    machine=machine, observe=True))
    return SweepSpec("scaling", tuple(requests))


@dataclass
class ScalingRow:
    """One (preset, workload, system) cell of the sweep."""

    preset: str
    sockets: int
    num_cores: int
    workload: str
    system: str
    cycles: int
    committed: int
    aborted: int
    correct: bool
    vid_resets: int
    #: Cycles every thread spent in the VID-reset quiesce, by socket —
    #: str-keyed like the obs digest so JSON round-trips are identity.
    vid_reset_cycles: Dict[str, int] = field(default_factory=dict)
    commit_stall_cycles: Dict[str, int] = field(default_factory=dict)


@dataclass
class ScalingResult:
    scale: float
    placement: str
    presets: Tuple[str, ...]
    rows: List[ScalingRow]
    records: List[RunRecord]


def _socket_cycles(record: RunRecord, category: str) -> Dict[str, int]:
    if record.obs_digest is None:
        return {}
    per_socket = load_digest(record.obs_digest)["per_socket"]
    return {str(socket): cats.get(category, 0)
            for socket, cats in sorted(per_socket.items())}


def run_scaling(scale: float = 1.0,
                presets: Sequence[str] = SCALING_PRESETS,
                systems: Sequence[str] = SCALING_SYSTEMS,
                workloads: Sequence[str] = SCALING_WORKLOADS,
                placement: str = "pack",
                jobs: int = 1,
                engine: Optional[SweepEngine] = None) -> ScalingResult:
    """Execute the sweep and distil the per-cell rows."""
    engine = engine or SweepEngine(jobs=jobs)
    spec = scaling_spec(scale, presets, systems, workloads, placement)
    records = engine.run_spec(spec)
    rows: List[ScalingRow] = []
    per_preset = len(workloads) * len(systems)
    for index, (request, record) in enumerate(zip(spec.requests, records)):
        preset = presets[index // per_preset]
        shape = request.machine.topology or topology_preset(preset)
        digest = record.obs_digest or {}
        rows.append(ScalingRow(
            preset=preset,
            sockets=shape.sockets,
            num_cores=request.machine.num_cores,
            workload=record.workload,
            system=record.system,
            cycles=record.cycles,
            committed=record.committed,
            aborted=record.aborted,
            correct=record.correct,
            vid_resets=digest.get("vid_resets", 0),
            vid_reset_cycles=_socket_cycles(record, "vid_reset"),
            commit_stall_cycles=_socket_cycles(record, "commit_stall"),
        ))
    return ScalingResult(scale=scale, placement=placement,
                         presets=tuple(presets), rows=rows, records=records)


def reset_storm_curve(result: ScalingResult) -> Dict[str, List[Dict[str, Any]]]:
    """The hmtx VID-reset cost as core count grows, per workload.

    One point per preset: reset count, total quiesce cycles, and the
    per-socket split showing the storm's shape (sockets far from the
    committing one stall longest).
    """
    curve: Dict[str, List[Dict[str, Any]]] = {}
    for row in result.rows:
        if row.system != "hmtx":
            continue
        curve.setdefault(row.workload, []).append({
            "preset": row.preset,
            "sockets": row.sockets,
            "num_cores": row.num_cores,
            "vid_resets": row.vid_resets,
            "vid_reset_cycles_total": sum(row.vid_reset_cycles.values()),
            "vid_reset_cycles_by_socket": row.vid_reset_cycles,
        })
    return curve


def scaling_report(result: ScalingResult) -> Dict[str, Any]:
    """JSON-ready report (wall-clock free, deterministic across --jobs)."""
    return {
        "schema": "hmtx-scaling-report/1",
        "scale": result.scale,
        "placement": result.placement,
        "presets": {name: topology_preset(name).describe()
                    for name in result.presets},
        "rows": [{
            "preset": row.preset,
            "sockets": row.sockets,
            "num_cores": row.num_cores,
            "workload": row.workload,
            "system": row.system,
            "cycles": row.cycles,
            "committed": row.committed,
            "aborted": row.aborted,
            "correct": row.correct,
            "vid_resets": row.vid_resets,
            "vid_reset_cycles_by_socket": row.vid_reset_cycles,
            "commit_stall_cycles_by_socket": row.commit_stall_cycles,
        } for row in result.rows],
        "reset_storm": reset_storm_curve(result),
    }


def format_scaling(result: ScalingResult) -> str:
    """Terminal table: one row per sweep cell, then the storm curve."""
    table_rows = []
    for row in result.rows:
        vr_total = sum(row.vid_reset_cycles.values())
        table_rows.append([
            row.preset, f"{row.sockets}x{row.num_cores // row.sockets}",
            row.workload, row.system, f"{row.cycles:,}",
            row.committed, row.aborted, row.vid_resets,
            f"{vr_total:,}", "ok" if row.correct else "WRONG",
        ])
    table = format_table(
        ["preset", "shape", "workload", "system", "cycles", "commits",
         "aborts", "resets", "reset cycles", "semantics"],
        table_rows,
        title=f"Topology scaling sweep (scale {result.scale}, "
              f"placement {result.placement})")
    lines = [table, "", "VID-reset storm (hmtx):"]
    for workload, points in sorted(reset_storm_curve(result).items()):
        for point in points:
            per_socket = ", ".join(
                f"s{socket}={cycles:,}" for socket, cycles
                in point["vid_reset_cycles_by_socket"].items())
            lines.append(
                f"  {workload:<12} {point['preset']:<7} "
                f"{point['num_cores']:>4} cores: "
                f"{point['vid_resets']} resets, "
                f"{point['vid_reset_cycles_total']:,} quiesce cycles"
                + (f" ({per_socket})" if per_socket else ""))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI (dispatched from repro.__main__ as ``python -m repro scaling``)
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro scaling",
        description="Sweep topology presets x backends x workloads; "
                    "emit the VID-reset-storm scaling report")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="sweep-engine worker processes; the report "
                             "is byte-identical for every value")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 2-socket x 8-core machine, "
                             "reduced workload set, scale 0.25")
    parser.add_argument("--presets", default=None,
                        help="comma-separated preset names (default "
                             f"{','.join(SCALING_PRESETS)})")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload names (default "
                             f"{','.join(SCALING_WORKLOADS)})")
    parser.add_argument("--systems", default=None,
                        help="comma-separated system labels (default "
                             f"{','.join(SCALING_SYSTEMS)})")
    parser.add_argument("--placement", default="pack",
                        choices=["pack", "spread"],
                        help="thread placement policy (default pack)")
    parser.add_argument("--survivor", default=None,
                        help="also replay one svc survivor JSON "
                             "(svc-survivor:<path>) on the first "
                             "multi-socket preset under hmtx")
    parser.add_argument("--output", default=_DEFAULT_OUTPUT,
                        help=f"report file (default {_DEFAULT_OUTPUT})")
    parser.add_argument("--history", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="append the sweep's obs digests to the "
                             "cross-run history store (default dir "
                             ".obs-history when no DIR given)")
    args = parser.parse_args(argv)

    if args.quick:
        presets = ("table2", "2s8c")
        workloads = QUICK_WORKLOADS
        scale = 0.25 if args.scale == 1.0 else args.scale
    else:
        presets = SCALING_PRESETS
        workloads = SCALING_WORKLOADS
        scale = args.scale
    if args.presets:
        presets = tuple(args.presets.split(","))
    if args.workloads:
        workloads = tuple(args.workloads.split(","))
    systems = tuple(args.systems.split(",")) if args.systems \
        else SCALING_SYSTEMS

    # A survivor replay is labelled by the survivor's own name, not the
    # path as typed, so the same survivor gives the same report from
    # every directory; reading the label validates the file up front.
    survivor = SURVIVOR_PREFIX + args.survivor if args.survivor else None
    label = workload_label(survivor) if survivor else None

    engine = SweepEngine(jobs=args.jobs)
    start = time.perf_counter()  # lint-ok: RL008 (terminal progress line only; never enters the report)
    result = run_scaling(scale=scale, presets=presets, systems=systems,
                         workloads=workloads, placement=args.placement,
                         jobs=args.jobs, engine=engine)
    report = scaling_report(result)

    if survivor:
        multi = next((p for p in presets if not topology_preset(p).flat),
                     presets[-1])
        machine = scaling_machine(multi, args.placement)
        record = engine.run_one(RunRequest(
            workload=survivor, system="hmtx", scale=1.0, machine=machine,
            observe=True))
        report["survivor_replay"] = {
            "workload": label,
            "preset": multi,
            "cycles": record.cycles,
            "committed": record.committed,
            "aborted": record.aborted,
            "correct": record.correct,
            "vid_resets": (record.obs_digest or {}).get("vid_resets", 0),
        }
        if not record.correct:
            print(f"survivor replay on {multi} broke sequential "
                  f"semantics: {args.survivor}", file=sys.stderr)
            return 1

    if args.history is not None:
        from ..obs.history import DEFAULT_ROOT, HistoryStore  # lint-ok: RL005 (history is opt-in; keeps the obs store out of default sweeps)
        store = HistoryStore(args.history or DEFAULT_ROOT)
        appended = store.append_runs(engine.observed_pairs,
                                     source="scaling")
        print(f"history: generation {appended['generation']} at "
              f"{store.root} ({appended['runs']} run(s), "
              f"{appended['new_digests']} new digest(s))")

    wall = time.perf_counter() - start  # lint-ok: RL008 (wall time is printed to the terminal only; the report written below is cycle-pure)
    output = pathlib.Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(format_scaling(result))
    print(f"\nwrote {output} ({wall:.1f}s at scale {scale}, "
          f"jobs {args.jobs})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
