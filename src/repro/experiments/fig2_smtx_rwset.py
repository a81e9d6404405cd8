"""Figure 2: SMTX whole-program speedup, minimal vs. substantial R/W sets.

The motivating figure: with expert-minimal validation sets SMTX ekes out
modest whole-program speedups; adding validation to shared-data accesses
(what realistic automatic parallelisation would need) turns them into
substantial slowdowns.  Whole-program numbers are the hot-loop speedups
Amdahl-projected through Table 1's hot-loop fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..smtx import smtx_whole_program_speedup
from ..workloads.suite import SMTX_COMPARABLE
from .engine import SweepSpec
from .reporting import BenchmarkRunner, format_table, geomean


@dataclass
class Fig2Row:
    benchmark: str
    minimal_whole_program: float
    substantial_whole_program: float
    minimal_hot_loop: float
    substantial_hot_loop: float


@dataclass
class Fig2Result:
    rows: Dict[str, Fig2Row]
    geomean_minimal: float
    geomean_substantial: float


def fig2_spec(runner: BenchmarkRunner) -> SweepSpec:
    """Every run Figure 2 needs, in report order."""
    requests: list = []
    for name in SMTX_COMPARABLE:
        requests.append(runner.request(name, "sequential"))
        requests.append(runner.request(name, "smtx-minimal"))
        requests.append(runner.request(name, "smtx-substantial"))
    return SweepSpec("fig2", tuple(requests))


def run_fig2(runner: BenchmarkRunner) -> Fig2Result:
    """Regenerate Figure 2 (the 6 SMTX-evaluated benchmarks)."""
    runner.engine.run_spec(fig2_spec(runner))
    rows: Dict[str, Fig2Row] = {}
    for name in SMTX_COMPARABLE:
        seq = runner.run(name, "sequential")
        minimal = runner.run(name, "smtx-minimal")
        substantial = runner.run(name, "smtx-substantial")
        hot_min = seq.cycles / minimal.cycles
        hot_sub = seq.cycles / substantial.cycles
        # RunRecord carries the workload's hot-loop fraction, which is all
        # the Amdahl projection reads.
        rows[name] = Fig2Row(
            benchmark=name,
            minimal_hot_loop=hot_min,
            substantial_hot_loop=hot_sub,
            minimal_whole_program=smtx_whole_program_speedup(minimal, hot_min),
            substantial_whole_program=smtx_whole_program_speedup(minimal, hot_sub),
        )
    return Fig2Result(
        rows=rows,
        geomean_minimal=geomean(r.minimal_whole_program for r in rows.values()),
        geomean_substantial=geomean(
            r.substantial_whole_program for r in rows.values()),
    )


def format_fig2(result: Fig2Result) -> str:
    table_rows = [
        [name, f"{row.minimal_whole_program:.2f}x",
         f"{row.substantial_whole_program:.2f}x"]
        for name, row in result.rows.items()
    ]
    table_rows.append(["geomean", f"{result.geomean_minimal:.2f}x",
                       f"{result.geomean_substantial:.2f}x"])
    return format_table(
        ["benchmark", "minimal R/W set", "substantial R/W set"],
        table_rows,
        title="Figure 2: SMTX whole-program speedup over sequential")
