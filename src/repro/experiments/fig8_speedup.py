"""Figure 8: hot-loop speedup over sequential on 4 cores.

SMTX runs with *minimal* read/write sets (the expert-manual configuration);
HMTX validates **every** load and store inside each transaction (the
maximum possible validation).  The paper reports geomean 1.99x for HMTX
over all 8 benchmarks, 2.02x over the 6 SMTX-comparable ones, vs. 1.44x
for SMTX.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..workloads.suite import BENCHMARK_NAMES, SMTX_COMPARABLE
from .engine import SweepSpec
from .reporting import BenchmarkRunner, format_table, geomean

#: Published Figure 8 summary points.
PAPER_GEOMEAN_HMTX_ALL = 1.99
PAPER_GEOMEAN_HMTX_COMPARABLE = 2.02
PAPER_GEOMEAN_SMTX_COMPARABLE = 1.44


@dataclass
class Fig8Row:
    benchmark: str
    paradigm: str
    hmtx_speedup: float
    smtx_speedup: Optional[float]  # None for the two without SMTX versions
    correct: bool


@dataclass
class Fig8Result:
    rows: Dict[str, Fig8Row]
    geomean_hmtx_all: float
    geomean_hmtx_comparable: float
    geomean_smtx_comparable: float


def fig8_spec(runner: BenchmarkRunner) -> SweepSpec:
    """Every run Figure 8 needs, in report order."""
    requests: list = []
    for name in BENCHMARK_NAMES:
        requests.append(runner.request(name, "sequential"))
        requests.append(runner.request(name, "hmtx"))
        if name in SMTX_COMPARABLE:
            requests.append(runner.request(name, "smtx-minimal"))
    return SweepSpec("fig8", tuple(requests))


def run_fig8(runner: BenchmarkRunner) -> Fig8Result:
    """Regenerate Figure 8's bars."""
    runner.engine.run_spec(fig8_spec(runner))
    rows: Dict[str, Fig8Row] = {}
    for name in BENCHMARK_NAMES:
        hmtx = runner.speedup(name, "hmtx")
        smtx = None
        if name in SMTX_COMPARABLE:
            smtx = runner.speedup(name, "smtx-minimal")
        rows[name] = Fig8Row(
            benchmark=name,
            paradigm=runner.run(name, "hmtx").paradigm,
            hmtx_speedup=hmtx,
            smtx_speedup=smtx,
            correct=runner.verify(name, "hmtx"),
        )
    comparable = [rows[n] for n in SMTX_COMPARABLE]
    return Fig8Result(
        rows=rows,
        geomean_hmtx_all=geomean(r.hmtx_speedup for r in rows.values()),
        geomean_hmtx_comparable=geomean(r.hmtx_speedup for r in comparable),
        geomean_smtx_comparable=geomean(r.smtx_speedup for r in comparable),
    )


def format_fig8(result: Fig8Result) -> str:
    table_rows = []
    for name, row in result.rows.items():
        table_rows.append([
            name,
            row.paradigm,
            f"{row.hmtx_speedup:.2f}x",
            f"{row.smtx_speedup:.2f}x" if row.smtx_speedup else "-",
            "ok" if row.correct else "WRONG RESULT",
        ])
    table_rows.append(["geomean (All)", "",
                       f"{result.geomean_hmtx_all:.2f}x", "-", ""])
    table_rows.append(["geomean (Comp.)", "",
                       f"{result.geomean_hmtx_comparable:.2f}x",
                       f"{result.geomean_smtx_comparable:.2f}x", ""])
    table = format_table(
        ["benchmark", "paradigm", "HMTX max R/W", "SMTX min R/W", "semantics"],
        table_rows,
        title="Figure 8: hot-loop speedup over sequential (4 cores)")
    paper = (f"paper: HMTX geomean {PAPER_GEOMEAN_HMTX_ALL:.2f}x (All), "
             f"{PAPER_GEOMEAN_HMTX_COMPARABLE:.2f}x (Comp.), "
             f"SMTX {PAPER_GEOMEAN_SMTX_COMPARABLE:.2f}x")
    return f"{table}\n{paper}"
