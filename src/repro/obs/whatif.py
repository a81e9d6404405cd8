"""Causal what-if profiler: rank machine knobs by makespan sensitivity.

Cycle attribution says where cycles *went*; it cannot say what would
*help*.  A phase can hold 40% of all cycles yet sit off the critical
path (threads would idle the same cycles anyway), while a 2%-share
serialisation point gates everything downstream.  Coz-style causal
profiling (Curtsinger & Berger, PAPERS.md) resolves this by *experiment*
instead of accounting: perturb one latency at a time, measure the
makespan response, and rank knobs by the measured sensitivity.

Here the machine is simulated, so the experiment is exact rather than
sampled: for each (topology preset × backend × workload) combination the
profiler runs a baseline plus one pair of runs per knob — the knob
scaled to ``1±delta`` — through the shared
:class:`~repro.experiments.engine.SweepEngine` (cached, byte-identical
across ``--jobs``), and fits the central-difference **elasticity**

    sensitivity = (makespan(+delta) - makespan(-delta))
                  / (2 * delta * makespan(baseline))

i.e. percent makespan change per percent knob change.  The committed
``REPORT_whatif.json`` carries, per combination, the ranked knob table
*and* the baseline phase shares — the point of the artifact is exactly
the places where those two orderings disagree.

Knobs (all latency-class parameters of the machine model):

``commit_multicast``   on-die hop of the commit/abort multicast tree
``reset_scrub``        the section 4.6 VID-reset scrub barrier
                       (:attr:`~repro.topology.TopologySpec.scrub_scale`)
``cross_socket_hop``   socket-interconnect hop (QPI/UPI class)
``dir_occupancy``      directory bank service occupancy
``l1_miss``            L1-miss service latency (the LLC slice hit time)
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..core.config import MachineConfig
from ..topology import topology_preset
from .profile import load_digest

WHATIF_SCHEMA = "hmtx-obs-whatif/1"

DEFAULT_DELTA = 0.25
DEFAULT_PRESETS = ("2s8c", "4s16c")
DEFAULT_SYSTEMS = ("hmtx", "smtx-minimal")
DEFAULT_WORKLOADS = ("svc-kv", "130.li")
DEFAULT_OUTPUT = "REPORT_whatif.json"


# ----------------------------------------------------------------------
# Knob registry
# ----------------------------------------------------------------------

def _scaled(value: int, factor: float) -> int:
    return max(1, int(round(value * factor)))


def _with_topology(machine: MachineConfig, **changes) -> MachineConfig:
    spec = dataclasses.replace(machine.topology, **changes)
    return dataclasses.replace(machine, topology=spec)


@dataclasses.dataclass(frozen=True)
class Knob:
    """One perturbable machine parameter."""

    name: str
    #: Dotted path of the underlying config field (documentation only).
    param: str
    description: str
    applies: Callable[[MachineConfig], bool]
    value: Callable[[MachineConfig], Any]
    #: ``apply(machine, factor) -> (perturbed machine, applied value)``.
    apply: Callable[[MachineConfig, float], Tuple[MachineConfig, Any]]


def _knob_intra(machine: MachineConfig,
                factor: float) -> Tuple[MachineConfig, int]:
    value = _scaled(machine.topology.intra_hop_latency, factor)
    return _with_topology(machine, intra_hop_latency=value), value


def _knob_scrub(machine: MachineConfig,
                factor: float) -> Tuple[MachineConfig, float]:
    value = round(machine.topology.scrub_scale * factor, 6)
    return _with_topology(machine, scrub_scale=value), value


def _knob_cross(machine: MachineConfig,
                factor: float) -> Tuple[MachineConfig, int]:
    value = _scaled(machine.topology.cross_hop_latency, factor)
    return _with_topology(machine, cross_hop_latency=value), value


def _knob_occupancy(machine: MachineConfig,
                    factor: float) -> Tuple[MachineConfig, int]:
    value = _scaled(machine.bank_occupancy, factor)
    return dataclasses.replace(machine, bank_occupancy=value), value


def _knob_l1_miss(machine: MachineConfig,
                  factor: float) -> Tuple[MachineConfig, int]:
    if machine.topology is not None:
        value = _scaled(machine.topology.llc_slice_latency, factor)
        return _with_topology(machine, llc_slice_latency=value), value
    value = _scaled(machine.l2_latency, factor)
    return dataclasses.replace(machine, l2_latency=value), value


#: Registry order is report order (deterministic).
KNOBS: Tuple[Knob, ...] = (
    Knob("commit_multicast", "topology.intra_hop_latency",
         "on-die hop of the commit/abort multicast tree",
         applies=lambda m: m.topology is not None,
         value=lambda m: m.topology.intra_hop_latency,
         apply=_knob_intra),
    Knob("reset_scrub", "topology.scrub_scale",
         "section 4.6 VID-reset scrub-barrier stall",
         applies=lambda m: m.topology is not None,
         value=lambda m: m.topology.scrub_scale,
         apply=_knob_scrub),
    Knob("cross_socket_hop", "topology.cross_hop_latency",
         "socket-interconnect hop latency",
         applies=lambda m: m.topology is not None,
         value=lambda m: m.topology.cross_hop_latency,
         apply=_knob_cross),
    Knob("dir_occupancy", "machine.bank_occupancy",
         "directory bank service occupancy",
         applies=lambda m: m.coherence == "directory",
         value=lambda m: m.bank_occupancy,
         apply=_knob_occupancy),
    Knob("l1_miss", "topology.llc_slice_latency",
         "L1-miss service latency (LLC slice hit time)",
         applies=lambda m: True,
         value=lambda m: (m.topology.llc_slice_latency
                          if m.topology is not None else m.l2_latency),
         apply=_knob_l1_miss),
)

KNOB_NAMES = tuple(knob.name for knob in KNOBS)


def knobs_by_name(names: Sequence[str]) -> Tuple[Knob, ...]:
    table = {knob.name: knob for knob in KNOBS}
    missing = [name for name in names if name not in table]
    if missing:
        raise KeyError(f"unknown knob(s) {missing}; choose from "
                       f"{list(KNOB_NAMES)}")
    return tuple(table[name] for name in names)


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------

def run_whatif(presets: Sequence[str] = DEFAULT_PRESETS,
               systems: Sequence[str] = DEFAULT_SYSTEMS,
               workloads: Sequence[str] = DEFAULT_WORKLOADS,
               knobs: Sequence[str] = KNOB_NAMES,
               delta: float = DEFAULT_DELTA,
               scale: float = 1.0,
               jobs: int = 1) -> Dict[str, Any]:
    """Run the full perturbation matrix; returns the report dict.

    One observed baseline per (preset × workload × system), plus an
    unobserved ``1±delta`` run pair per applicable knob — all dispatched
    as a single engine batch so ``--jobs`` parallelises across the whole
    matrix.
    """
    from ..experiments.engine import RunRequest, SweepEngine  # lint-ok: RL005 (keeps repro.obs import-light; the sweep stack loads only when a what-if actually runs)
    from ..experiments.scaling_sweep import scaling_machine  # lint-ok: RL005 (same lazy sweep-stack boundary as the engine import above)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    engine = SweepEngine(jobs=jobs)
    selected = knobs_by_name(knobs)

    # Build the whole request matrix first (one batch = full parallelism),
    # remembering for each combo which slice of it is whose.
    requests: List[Any] = []
    plan = []
    for preset in presets:
        machine = scaling_machine(preset)
        for workload in workloads:
            for system in systems:
                baseline_at = len(requests)
                requests.append(RunRequest(
                    workload=workload, system=system, scale=scale,
                    machine=machine, observe=True))
                knob_slots = []
                for knob in selected:
                    if not knob.applies(machine):
                        continue
                    up_machine, up_value = knob.apply(machine, 1.0 + delta)
                    down_machine, down_value = knob.apply(machine,
                                                          1.0 - delta)
                    knob_slots.append((knob, up_value, down_value,
                                       len(requests), len(requests) + 1))
                    requests.append(RunRequest(
                        workload=workload, system=system, scale=scale,
                        machine=up_machine))
                    requests.append(RunRequest(
                        workload=workload, system=system, scale=scale,
                        machine=down_machine))
                plan.append((preset, workload, system, machine,
                             baseline_at, knob_slots))
    records = engine.run(requests)

    combos = []
    for preset, workload, system, machine, baseline_at, knob_slots in plan:
        baseline = records[baseline_at]
        base_makespan = max(1, baseline.cycles)
        digest = load_digest(baseline.obs_digest)
        total = max(1, digest["total_thread_cycles"])
        rows = []
        for knob, up_value, down_value, up_at, down_at in knob_slots:
            up = records[up_at].cycles
            down = records[down_at].cycles
            sensitivity = (up - down) / (2.0 * delta * base_makespan)
            rows.append({
                "knob": knob.name,
                "param": knob.param,
                "base": knob.value(machine),
                "up": up_value,
                "down": down_value,
                "makespan": {"base": baseline.cycles, "up": up,
                             "down": down},
                "elasticity": {
                    "up": round((up - base_makespan)
                                / (delta * base_makespan), 4),
                    "down": round((down - base_makespan)
                                  / (-delta * base_makespan), 4),
                },
                "sensitivity": round(sensitivity, 4),
            })
        rows.sort(key=lambda row: (-abs(row["sensitivity"]), row["knob"]))
        combos.append({
            "preset": preset,
            "workload": workload,
            "system": system,
            "baseline": {
                "makespan": baseline.cycles,
                "vid_resets": digest["vid_resets"],
                "phases": digest["categories"],
                "phase_shares": {
                    category: round(cycles / total, 4)
                    for category, cycles in digest["categories"].items()},
            },
            "knobs": rows,
            "ranking": [row["knob"] for row in rows],
        })
    return {
        "schema": WHATIF_SCHEMA,
        "scale": scale,
        "delta": delta,
        "presets": {name: topology_preset(name).describe()
                    for name in presets},
        "knobs": {knob.name: {"param": knob.param,
                              "description": knob.description}
                  for knob in selected},
        "combos": combos,
    }


# ----------------------------------------------------------------------
# Report output (clock-free: the artifact is a function of its runs)
# ----------------------------------------------------------------------

def write_report(report: Dict[str, Any], path) -> pathlib.Path:
    output = pathlib.Path(path)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return output


def format_whatif(report: Dict[str, Any]) -> str:
    """Terminal view: ranked knob table per combination."""
    lines = [f"what-if sensitivity (delta ±{report['delta']:.0%}, "
             f"scale {report['scale']}) — "
             f"% makespan change per % knob change"]
    for combo in report["combos"]:
        base = combo["baseline"]
        lines.append(f"\n{combo['workload']}/{combo['system']} on "
                     f"{combo['preset']}: makespan "
                     f"{base['makespan']:,} cycles, "
                     f"{base['vid_resets']} vid reset(s)")
        for rank, row in enumerate(combo["knobs"], 1):
            makespan = row["makespan"]
            swing = makespan["up"] - makespan["down"]
            lines.append(
                f"  {rank}. {row['knob']:<18} sensitivity "
                f"{row['sensitivity']:+8.4f}  "
                f"(makespan {makespan['down']:,} .. {makespan['up']:,}, "
                f"swing {swing:+,})")
        shares = sorted(base["phase_shares"].items(),
                        key=lambda kv: -kv[1])[:3]
        lines.append("     cycle shares for contrast: "
                     + ", ".join(f"{category} {share:.0%}"
                                 for category, share in shares))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI (``python -m repro obs whatif``)
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    import argparse  # lint-ok: RL005 (CLI-only dependency; library users of run_whatif never pay for it)
    parser = argparse.ArgumentParser(
        prog="python -m repro obs whatif",
        description="causal what-if profiler: perturb one machine knob "
                    "at a time, rank knobs by makespan sensitivity")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: one preset, one backend, one "
                             "workload, reset_scrub knob only")
    parser.add_argument("--presets", default=None,
                        help="comma-separated topology presets (default "
                             f"{','.join(DEFAULT_PRESETS)})")
    parser.add_argument("--systems", default=None,
                        help="comma-separated backends (default "
                             f"{','.join(DEFAULT_SYSTEMS)})")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads (default "
                             f"{','.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--knobs", default=None,
                        help="comma-separated knob names (default all: "
                             f"{','.join(KNOB_NAMES)})")
    parser.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                        help=f"perturbation fraction "
                             f"(default {DEFAULT_DELTA})")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="sweep-engine worker processes; the report "
                             "is byte-identical for every value")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"report file (default {DEFAULT_OUTPUT}; "
                             f"'-' to skip writing)")
    args = parser.parse_args(argv)

    presets: Sequence[str] = DEFAULT_PRESETS
    systems: Sequence[str] = DEFAULT_SYSTEMS
    workloads: Sequence[str] = DEFAULT_WORKLOADS
    knobs: Sequence[str] = KNOB_NAMES
    scale = args.scale
    if args.quick:
        presets = ("2s8c",)
        systems = ("hmtx",)
        workloads = ("svc-kv",)
        knobs = ("reset_scrub",)
        if args.scale == 1.0:
            scale = 0.5
    if args.presets:
        presets = tuple(args.presets.split(","))
    if args.systems:
        systems = tuple(args.systems.split(","))
    if args.workloads:
        workloads = tuple(args.workloads.split(","))
    if args.knobs:
        knobs = tuple(args.knobs.split(","))

    report = run_whatif(presets=presets, systems=systems,
                        workloads=workloads, knobs=knobs,
                        delta=args.delta, scale=scale, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_whatif(report))
    if args.output != "-":
        output = write_report(report, args.output)
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
