"""Figure 9: average read/write-set size per transaction in kilobytes.

Set sizes are measured at cache-line granularity (the hardware's conflict
granularity).  The paper's geomean combined set is 957 kB with 256.bzip2 by
far the largest (16,222 kB); the models run ~1/400 scale, so EXPERIMENTS.md
compares *relative* sizes (who is largest, spread between benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..workloads.suite import BENCHMARK_NAMES
from .engine import SweepSpec
from .reporting import BenchmarkRunner, format_table, geomean

#: Published Figure 9 summary points (kB per transaction).
PAPER_GEOMEAN_COMBINED_KB = 957.0
PAPER_LARGEST = ("256.bzip2", 16222.0)


@dataclass
class Fig9Row:
    benchmark: str
    read_set_kb: float
    write_set_kb: float
    combined_kb: float


@dataclass
class Fig9Result:
    rows: Dict[str, Fig9Row]
    geomean_combined_kb: float

    def largest(self) -> str:
        return max(self.rows.values(), key=lambda r: r.combined_kb).benchmark


def fig9_spec(runner: BenchmarkRunner) -> SweepSpec:
    """Every run Figure 9 needs, in report order."""
    return SweepSpec("fig9", tuple(runner.request(name, "hmtx")
                                   for name in BENCHMARK_NAMES))


def run_fig9(runner: BenchmarkRunner) -> Fig9Result:
    """Regenerate Figure 9 from HMTX (max-validation) runs."""
    runner.engine.run_spec(fig9_spec(runner))
    rows: Dict[str, Fig9Row] = {}
    for name in BENCHMARK_NAMES:
        record = runner.run(name, "hmtx")
        rows[name] = Fig9Row(
            benchmark=name,
            read_set_kb=record.avg_read_set_kb,
            write_set_kb=record.avg_write_set_kb,
            combined_kb=record.avg_combined_set_kb,
        )
    return Fig9Result(
        rows=rows,
        geomean_combined_kb=geomean(
            max(r.combined_kb, 1e-3) for r in rows.values()),
    )


def format_fig9(result: Fig9Result) -> str:
    table_rows = [
        [name, f"{row.read_set_kb:.2f}", f"{row.write_set_kb:.2f}",
         f"{row.combined_kb:.2f}"]
        for name, row in result.rows.items()
    ]
    table_rows.append(["geomean", "", "", f"{result.geomean_combined_kb:.2f}"])
    table = format_table(
        ["benchmark", "read set (kB)", "write set (kB)", "combined (kB)"],
        table_rows,
        title="Figure 9: average R/W set size per transaction (scaled runs)")
    return (f"{table}\npaper: geomean combined {PAPER_GEOMEAN_COMBINED_KB} kB; "
            f"largest {PAPER_LARGEST[0]} at {PAPER_LARGEST[1]:,.0f} kB")
