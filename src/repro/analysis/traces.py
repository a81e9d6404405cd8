"""Drive every registered backend over the workload suite and racecheck it.

This is the dynamic half of ``python -m repro analyze``: for each
``(backend, workload)`` pair a fresh system is built, a
:class:`~repro.obs.trace.BackendTracer` attached, the workload run
under its Table 1 paradigm, and the recorded event stream handed to
:func:`~repro.analysis.racecheck.check_trace`.  Every registered backend
(hmtx / smtx / oracle / any future plugin) must produce a clean trace —
the conformance contract the race detector enforces on top of the
signature-level checks in ``tests/backends/test_conformance.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from ..backends import backend_names
from ..coherence.memory import DEFAULT_WORD_SIZE
from ..obs.tap import Tap
from ..runtime.paradigms import run_workload
from ..obs.trace import BackendTracer
from ..workloads import executor_factory_for, make_workload
from ..workloads.suite import BENCHMARK_NAMES
from .findings import SEVERITY_ERROR, Finding, PassReport
from .racecheck import check_trace

#: The quick-scale the CI analysis job replays (matches the sweep smoke).
QUICK_SCALE = 0.25

#: Adversarial extra workloads (aborts, capacity pressure) replayed on top
#: of the Table 1 suite; names resolved by the sweep engine's builder.
EXTRA_WORKLOADS = ("contended-list",)


def default_workloads() -> Tuple[str, ...]:
    return tuple(BENCHMARK_NAMES) + EXTRA_WORKLOADS


def capture_trace(backend: str, workload_name: str,
                  scale: float = QUICK_SCALE):
    """Run one workload on one backend with a tracer attached.

    Returns ``(tracer, result, workload)``; the tracer is already
    detached.
    """
    workload = make_workload(workload_name, scale)
    tracer = BackendTracer()
    with Tap(tracer).activate():
        result = run_workload(workload, backend=backend,
                              executor_factory=executor_factory_for(workload))
    tracer.detach()
    return tracer, result, workload


def racecheck_backends(backends: Optional[Sequence[str]] = None,
                       workloads: Optional[Iterable[str]] = None,
                       scale: float = QUICK_SCALE) -> PassReport:
    """Racecheck recorded traces of every backend over the workload set.

    Merges the per-trace reports into one ``racecheck`` pass report whose
    findings are labelled ``backend/workload``; also asserts each run
    preserved sequential semantics (rule ``RC005``).
    """
    backends = tuple(backends) if backends else backend_names()
    workloads = tuple(workloads) if workloads else default_workloads()
    merged = PassReport(name="racecheck")
    totals = {"traces": 0, "events": 0, "loads_checked": 0,
              "stores": 0, "commits": 0, "aborts": 0, "violations": 0}
    for backend in backends:
        for workload_name in workloads:
            label = f"{backend}/{workload_name}"
            tracer, result, workload = capture_trace(backend, workload_name,
                                                     scale)
            sub = check_trace(tracer.events, word_size=DEFAULT_WORD_SIZE,
                              label=label)
            merged.findings.extend(sub.findings)
            totals["traces"] += 1
            for key in ("events", "loads_checked", "stores", "commits",
                        "aborts", "violations"):
                totals[key] += sub.coverage[key]
            if tracer.dropped:
                merged.findings.append(Finding(
                    "RC000", SEVERITY_ERROR, label,
                    f"trace ring overflowed: {tracer.dropped} oldest "
                    "events evicted — the replay window is partial",
                    "raise BackendTracer capacity or lower the scale"))
            observed = workload.observed_result(result.system)
            expected = workload.expected_result(result.system)
            if observed != expected:
                merged.findings.append(Finding(
                    "RC005", SEVERITY_ERROR, label,
                    "run did not preserve sequential semantics",
                    f"observed {observed!r} != expected {expected!r}"))
    merged.coverage = dict(totals,
                           backends=",".join(backends), scale=scale)
    return merged
