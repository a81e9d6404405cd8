"""Table 1: per-benchmark statistics from speculative execution.

Columns: parallel paradigm, hot-loop native time %, average speculative
memory accesses per transaction, aborts avoided via SLA per transaction,
% of speculative loads needing an SLA, % branch instructions, and branch
misprediction rate inside the hot loop.

Scale note: accesses/TX and avoided-aborts/TX scale with transaction size
(~1000x smaller here than native); the paradigm, hot-loop %, SLA %, branch
mix and mispredict columns are scale-free.  EXPERIMENTS.md discusses each
column's paper-vs-measured agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..workloads.suite import BENCHMARK_NAMES, PAPER_TABLE1, Table1Row
from .engine import SweepSpec
from .reporting import BenchmarkRunner, format_table


@dataclass
class MeasuredRow:
    benchmark: str
    paradigm: str
    hot_loop_pct: float
    spec_accesses_per_tx: float
    aborts_avoided_per_tx: float
    sla_pct_of_loads: float
    branch_pct: float
    mispredict_pct: float
    #: Abort breakdown by txctl cause ("-" when the run never aborted);
    #: no paper column exists — the paper reports only totals per figure.
    aborts_by_cause: str = "-"


@dataclass
class Table1Result:
    measured: Dict[str, MeasuredRow]
    paper: Dict[str, Table1Row]


def table1_spec(runner: BenchmarkRunner) -> SweepSpec:
    """Every run Table 1 needs, in report order."""
    requests: list = []
    for name in BENCHMARK_NAMES:
        requests.append(runner.request(name, "hmtx"))
        requests.append(runner.request(name, "sequential"))
    return SweepSpec("table1", tuple(requests))


def run_table1(runner: BenchmarkRunner) -> Table1Result:
    """Regenerate Table 1 from HMTX (max-validation) runs."""
    runner.engine.run_spec(table1_spec(runner))
    measured: Dict[str, MeasuredRow] = {}
    for name in BENCHMARK_NAMES:
        record = runner.run(name, "hmtx")
        # Branch mix comes from the dedicated parallel run's executor; the
        # runner builds one CoreExecutor per run, but stats are per-system:
        # re-derive from the sequential run for an apples-to-apples mix.
        seq = runner.run(name, "sequential")
        measured[name] = MeasuredRow(
            benchmark=name,
            paradigm=record.paradigm,
            hot_loop_pct=100.0 * record.hot_loop_fraction,
            spec_accesses_per_tx=record.avg_spec_accesses_per_tx,
            aborts_avoided_per_tx=record.avoided_aborts_per_tx,
            sla_pct_of_loads=100.0 * record.sla_fraction_of_spec_loads,
            branch_pct=100.0 * seq.branch_fraction,
            mispredict_pct=100.0 * seq.mispredict_rate,
            aborts_by_cause=record.cause_summary,
        )
    return Table1Result(measured=measured, paper=dict(PAPER_TABLE1))


def format_table1(result: Table1Result) -> str:
    rows = []
    for name, m in result.measured.items():
        p = result.paper[name]
        rows.append([
            name,
            m.paradigm,
            f"{m.hot_loop_pct:.1f}%",
            f"{m.spec_accesses_per_tx:,.0f} ({p.spec_accesses_per_tx:,.0f})",
            f"{m.aborts_avoided_per_tx:.3f} ({p.aborts_avoided_per_tx})",
            f"{m.sla_pct_of_loads:.2f}% ({p.sla_pct_of_loads}%)",
            f"{m.branch_pct:.1f}% ({p.branch_pct}%)",
            f"{m.mispredict_pct:.2f}% ({p.mispredict_pct}%)",
            m.aborts_by_cause,
        ])
    return format_table(
        ["benchmark", "paradigm", "hot loop", "spec acc/TX (paper)",
         "SLA-avoided/TX (paper)", "% loads SLA (paper)",
         "% branches (paper)", "mispredict (paper)", "aborts by cause"],
        rows,
        title="Table 1: speculative-execution statistics (measured vs paper)")
