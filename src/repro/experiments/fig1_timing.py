"""Figure 1: execution-timing comparison of the parallelisation paradigms.

Runs the motivating linked-list loop under Sequential, DOACROSS, DSWP and
PS-DSWP and reports each paradigm's cycles and speedup — the quantitative
form of Figure 1's timing diagrams.  The expected shape (section 2.1):

* DOACROSS suffers the inter-core latency on every iteration;
* DSWP pays it once (pipeline fill) and beats DOACROSS, but tops out at
  two useful threads;
* PS-DSWP replicates the parallel stage and wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.config import MachineConfig
from ..runtime.paradigms import run_workload
from ..workloads.linkedlist import LinkedListWorkload
from .reporting import format_table


@dataclass
class Fig1Result:
    cycles: Dict[str, int]
    speedups: Dict[str, float]
    queue_latency: int


def run_fig1(nodes: int = 48, work_cycles: int = 400) -> Fig1Result:
    """Regenerate Figure 1's paradigm comparison."""
    config = MachineConfig()

    def fresh() -> LinkedListWorkload:
        return LinkedListWorkload(nodes=nodes, work_cycles=work_cycles)

    runs = {
        "Sequential": run_workload(fresh(), config, paradigm="Sequential"),
        "DOACROSS": run_workload(fresh(), config, paradigm="DOACROSS",
                                 workers=2),
        "DSWP": run_workload(fresh(), config, paradigm="DSWP"),
        "PS-DSWP": run_workload(fresh(), config, paradigm="PS-DSWP"),
    }
    sequential = runs["Sequential"].cycles
    return Fig1Result(
        cycles={k: r.cycles for k, r in runs.items()},
        speedups={k: sequential / r.cycles for k, r in runs.items()},
        queue_latency=config.queue_latency,
    )


def format_fig1(result: Fig1Result) -> str:
    rows = [
        [name, f"{cycles:,}", f"{result.speedups[name]:.2f}x"]
        for name, cycles in result.cycles.items()
    ]
    return format_table(
        ["paradigm", "hot-loop cycles", "speedup"],
        rows,
        title=(f"Figure 1: paradigm timing on the linked-list loop "
               f"(inter-core latency {result.queue_latency} cycles)"))
