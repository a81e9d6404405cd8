"""Table 3: area, power, and energy on the simulated 4-core machine.

Rows (as in the paper): {Sequential, SMTX min-R/W} on commodity hardware,
and {Sequential, SMTX, HMTX max-R/W} on hardware with the HMTX extensions.
"All" averages the full suite, "Comp." only the 6 SMTX-comparable
benchmarks.  Energies are reported for the *scaled* simulated runs, so the
meaningful comparisons are the ratios (HMTX uses less energy than SMTX
because it finishes sooner; HMTX hardware adds ~1% to software that never
uses it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..power import McPatModel, PowerReport
from ..workloads.suite import BENCHMARK_NAMES, SMTX_COMPARABLE
from .engine import SweepSpec
from .reporting import BenchmarkRunner, format_table, geomean

#: Paper Table 3 reference points.
PAPER_AREA_COMMODITY = 107.1
PAPER_AREA_HMTX = 111.1
PAPER_LEAK_COMMODITY = 5.515
PAPER_LEAK_HMTX = 5.607


@dataclass
class Table3Result:
    area_commodity: float
    area_hmtx: float
    leakage_commodity: float
    leakage_hmtx: float
    #: label -> geomean PowerReport over the row's benchmark set.
    rows: Dict[str, PowerReport]


def _geomean_report(label: str, reports: List[PowerReport]) -> PowerReport:
    return PowerReport(
        label=label,
        area_mm2=reports[0].area_mm2,
        leakage_w=reports[0].leakage_w,
        dynamic_w=geomean(r.dynamic_w for r in reports),
        seconds=geomean(r.seconds for r in reports),
    )


def table3_spec(runner: BenchmarkRunner) -> SweepSpec:
    """Every run Table 3 needs, in report order."""
    requests: list = []
    for name in BENCHMARK_NAMES:
        requests.append(runner.request(name, "sequential"))
        requests.append(runner.request(name, "hmtx"))
        if name in SMTX_COMPARABLE:
            requests.append(runner.request(name, "smtx-minimal"))
    return SweepSpec("table3", tuple(requests))


def run_table3(runner: BenchmarkRunner) -> Table3Result:
    """Regenerate Table 3 from the Figure 8 runs plus the power model."""
    runner.engine.run_spec(table3_spec(runner))
    commodity = McPatModel(hmtx_extensions=False)
    extended = McPatModel(hmtx_extensions=True)

    def reports(kind: str, names, model: McPatModel) -> List[PowerReport]:
        out = []
        for name in names:
            if kind == "sequential":
                profile = runner.run(name, "sequential").power_profile()
            elif kind == "smtx":
                profile = runner.run(name, "smtx-minimal") \
                    .power_profile(commit_process=True)
            else:
                profile = runner.run(name, "hmtx") \
                    .power_profile(hmtx_active=True)
            out.append(model.report(name, profile))
        return out

    rows = {
        "Commodity / Sequential (All)": _geomean_report(
            "Sequential (All)", reports("sequential", BENCHMARK_NAMES, commodity)),
        "Commodity / Sequential (Comp.)": _geomean_report(
            "Sequential (Comp.)", reports("sequential", SMTX_COMPARABLE, commodity)),
        "Commodity / SMTX, Min R/W": _geomean_report(
            "SMTX, Min R/W", reports("smtx", SMTX_COMPARABLE, commodity)),
        "HMTX-hw / Sequential (All)": _geomean_report(
            "Sequential (All)", reports("sequential", BENCHMARK_NAMES, extended)),
        "HMTX-hw / Sequential (Comp.)": _geomean_report(
            "Sequential (Comp.)", reports("sequential", SMTX_COMPARABLE, extended)),
        "HMTX-hw / SMTX, Min R/W": _geomean_report(
            "SMTX, Min R/W", reports("smtx", SMTX_COMPARABLE, extended)),
        "HMTX-hw / HMTX, Max R/W (All)": _geomean_report(
            "HMTX, Max R/W (All)", reports("hmtx", BENCHMARK_NAMES, extended)),
        "HMTX-hw / HMTX, Max R/W (Comp.)": _geomean_report(
            "HMTX, Max R/W (Comp.)", reports("hmtx", SMTX_COMPARABLE, extended)),
    }
    return Table3Result(
        area_commodity=commodity.total_area(),
        area_hmtx=extended.total_area(),
        leakage_commodity=commodity.leakage(),
        leakage_hmtx=extended.leakage(),
        rows=rows,
    )


def format_table3(result: Table3Result) -> str:
    table_rows = []
    for label, report in result.rows.items():
        table_rows.append([
            label,
            f"{report.area_mm2:.1f}",
            f"{report.leakage_w:.3f}",
            f"{report.dynamic_w:.2f}",
            f"{report.energy_j * 1e6:.2f}",
        ])
    table = format_table(
        ["hardware / exec model", "area (mm^2)", "leakage (W)",
         "geomean dynamic (W)", "geomean energy (uJ, scaled runs)"],
        table_rows,
        title="Table 3: area, power, energy (simulated 4-core machine)")
    paper = (f"paper areas: {PAPER_AREA_COMMODITY} -> {PAPER_AREA_HMTX} mm^2; "
             f"leakage {PAPER_LEAK_COMMODITY} -> {PAPER_LEAK_HMTX} W")
    return f"{table}\n{paper}"
