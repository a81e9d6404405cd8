"""Contention-management sweep: retry policies under hostile workloads.

The evaluation's Table 1 benchmarks abort rarely, so the choice of
contention-management policy barely shows there.  This driver stresses
the :mod:`repro.txctl` subsystem where it matters, running two
adversarial loops (:mod:`repro.workloads.contended`) under every
registered retry policy:

* **contended-list** — the Figure 3 linked list with a shared
  read-modify-write per iteration: conflict aborts, curable by
  backoff/serialisation.
* **capacity-hog** — write sets that overflow a deliberately tiny cache
  hierarchy: deterministic capacity aborts, curable *only* by the
  non-speculative serial fallback.

For each (workload, policy) cell the table reports cycles, recoveries,
the abort breakdown by cause, how far the escalation ladder was climbed
(retried / serialised / fell back) and whether the committed result
matched sequential semantics — the subsystem's progress guarantee made
measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..txctl import POLICIES
from ..workloads.contended import CapacityHogWorkload
from .engine import RunRequest, SweepEngine, SweepSpec
from .reporting import format_table


@dataclass
class SweepCell:
    """One (workload, policy) run of the sweep."""

    workload: str
    policy: str
    cycles: int
    recoveries: int
    aborts_by_cause: Dict[str, int]
    backoff_cycles: int
    serialized: bool
    fallback: bool
    fallback_iterations: int
    correct: bool

    @property
    def cause_summary(self) -> str:
        if not self.aborts_by_cause:
            return "-"
        return " ".join(f"{cause}={count}"
                        for cause, count in sorted(self.aborts_by_cause.items()))

    @property
    def outcome(self) -> str:
        if self.fallback:
            return "fallback"
        if self.serialized:
            return "serialized"
        if self.recoveries:
            return "retried"
        return "clean"


@dataclass
class ContentionSweepResult:
    cells: List[SweepCell]

    def cell(self, workload: str, policy: str) -> SweepCell:
        for c in self.cells:
            if c.workload == workload and c.policy == policy:
                return c
        raise KeyError((workload, policy))


def contention_spec(scale: float = 1.0) -> SweepSpec:
    """Every (workload, policy) cell of the sweep, in report order.

    The adversarial workloads are engine-native (``build_workload`` sizes
    them by ``scale``); the capacity hog pins the deliberately tiny
    machine config through the request.
    """
    requests: List[RunRequest] = []
    for workload_name, machine in (("contended-list", None),
                                   ("capacity-hog",
                                    CapacityHogWorkload.tiny_config())):
        for policy_name in sorted(POLICIES):
            requests.append(RunRequest(
                workload=workload_name, system="hmtx", scale=scale,
                paradigm="PS-DSWP", policy=policy_name, machine=machine))
    return SweepSpec("contention", tuple(requests))


def run_contention_sweep(scale: float = 1.0,
                         engine: Optional[SweepEngine] = None,
                         ) -> ContentionSweepResult:
    """Run every scenario under every retry policy."""
    engine = engine or SweepEngine()
    spec = contention_spec(scale)
    cells: List[SweepCell] = []
    for request, record in zip(spec.requests, engine.run_spec(spec)):
        cells.append(SweepCell(
            workload=record.workload,
            policy=request.policy,
            cycles=record.cycles,
            recoveries=record.recoveries,
            aborts_by_cause=dict(record.aborts_by_cause),
            backoff_cycles=record.backoff_cycles,
            serialized=record.degraded_serial,
            fallback=record.serial_fallback,
            fallback_iterations=record.fallback_iterations,
            correct=record.correct,
        ))
    return ContentionSweepResult(cells=cells)


def format_contention_sweep(result: ContentionSweepResult) -> str:
    rows = []
    for c in result.cells:
        rows.append([
            c.workload,
            c.policy,
            f"{c.cycles:,}",
            c.recoveries,
            c.cause_summary,
            c.backoff_cycles,
            c.outcome,
            "ok" if c.correct else "*** WRONG ***",
        ])
    return format_table(
        ["workload", "policy", "cycles", "recoveries", "aborts by cause",
         "backoff cyc", "outcome", "result"],
        rows,
        title="Contention sweep: retry policies on adversarial workloads")
