"""Phase breakdown of simulator wall time (``python -m repro bench --profile``).

Answers "where do the simulator's wall-clock seconds actually go?" without
guessing from cProfile output: the named protocol phases — bus snoops
(``_fetch`` of the hierarchy), S-S scrubs and VID-reset scrubs
(``_scrub_ss_copies`` of the hierarchy, :meth:`VersionedCache.vid_reset`),
epoch-gated lazy commit/abort folds (:meth:`VersionedCache._process_bucket`),
the protocol hit path (``_access`` of the hierarchy) and the scheduler's
run loop (:meth:`Scheduler.run`) — are timed with ``time.perf_counter_ns``
for the duration of one bench pass.

:class:`PhaseProfiler` is a plain :mod:`repro.obs.tap` subscriber: active
in a :class:`~repro.obs.tap.Tap`, it is handed every system and scheduler
a run builds and times their phase methods through the tap's per-instance
wrappers (one small subscriber type per object kind, since the tap
resolves callbacks by method name and the hierarchy has a ``vid_reset``
of its own).  A directory machine's own ``_fetch`` and
``_scrub_ss_copies`` are timed too.

Accounting is **exclusive** per phase: a call stack tracks nesting, so a
nanosecond spent inside a lazy fold reached from ``_access`` is charged to
``lazy-fold``, not double-counted under ``access`` and ``scheduler``.

Caveat: the wrappers themselves cost time per wrapped call, which inflates
absolute wall times (most visibly for ``access``, the hottest entry point).
The *shares* are the signal; profiled walls are never written to the
committed bench artifacts.
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..obs import tap

#: Phase display order.  ``scheduler`` is everything inside the run loop
#: not claimed by a protocol phase — including the workload generators it
#: resumes; ``other`` (derived, not measured) is time outside the run
#: loop: workload construction, system setup, result validation.
PHASES = ("scheduler", "access", "snoop", "scrub", "lazy-fold")


class PhaseProfiler:
    """Exclusive-time phase accounting over the simulator's entry points."""

    def __init__(self) -> None:
        self.ns: Dict[str, int] = {phase: 0 for phase in PHASES}
        self.calls: Dict[str, int] = {phase: 0 for phase in PHASES}
        #: One ``[start, child time]`` frame per timed call in progress.
        self._stack: List[List[int]] = []
        self._scheduler = _SchedulerPhases(self)
        self._hierarchy = _HierarchyPhases(self)
        self._cache = _CachePhases(self)

    def attach_system(self, system) -> None:
        """Time the coherence model of ``system``: the hierarchy of HMTX,
        the timing hierarchy of a software TM (SMTX, the oracle)."""
        timing = getattr(system, "timing", None)
        hierarchy = system.hierarchy if timing is None else timing
        tap.subscribe(hierarchy, self._hierarchy)
        for cache in hierarchy._caches:
            tap.subscribe(cache, self._cache)

    def attach_scheduler(self, scheduler) -> None:
        tap.subscribe(scheduler, self._scheduler)

    def detach(self) -> None:
        for subscriber in (self._scheduler, self._hierarchy, self._cache):
            tap.unsubscribe(subscriber)

    def _enter(self) -> None:
        self._stack.append([time.perf_counter_ns(), 0])

    def _leave(self, phase: str) -> None:
        start, child = self._stack.pop()
        elapsed = time.perf_counter_ns() - start
        self.ns[phase] += elapsed - child
        self.calls[phase] += 1
        if self._stack:
            self._stack[-1][1] += elapsed

    def report(self, wall_seconds: float) -> Dict:
        """JSON-ready breakdown; ``other`` absorbs un-wrapped time."""
        wall_ns = max(1, int(wall_seconds * 1e9))
        phases = {}
        accounted = 0
        for phase in PHASES:
            phase_ns = self.ns[phase]
            accounted += phase_ns
            phases[phase] = {
                "seconds": round(phase_ns / 1e9, 4),
                "share": round(phase_ns / wall_ns, 4),
                "calls": self.calls[phase],
            }
        other = max(0, wall_ns - accounted)
        phases["other"] = {"seconds": round(other / 1e9, 4),
                           "share": round(other / wall_ns, 4),
                           "calls": 0}
        return {"wall_seconds": round(wall_seconds, 4), "phases": phases}


def format_profile(report: Dict) -> str:
    lines = ["phase breakdown (exclusive wall time; wrapper overhead "
             "inflates absolute numbers — read the shares)"]
    lines.append(f"{'phase':<12} {'seconds':>9} {'share':>7} {'calls':>10}")
    for phase, row in report["phases"].items():
        lines.append(f"{phase:<12} {row['seconds']:>9.3f} "
                     f"{row['share']:>6.1%} {row['calls']:>10,}")
    lines.append(f"{'wall':<12} {report['wall_seconds']:>9.3f}")
    return "\n".join(lines)


class _Phases:
    """Base of the per-kind subscriber types :func:`_phase_subscriber`
    builds; the tap holds these, the profiler holds the counts."""

    def __init__(self, profiler: PhaseProfiler) -> None:
        self.profiler = profiler


def _phase_subscriber(name: str, phases: Dict[str, str]) -> type:
    """A tap subscriber type timing the methods ``phases`` maps to their
    phase: each call enters in ``before_`` and leaves in ``after_`` or
    ``failed_`` (a misspeculation unwinding through it)."""
    namespace = {}
    for method, phase in phases.items():
        namespace["before_" + method] = \
            lambda self, *args: self.profiler._enter()
        namespace["after_" + method] = namespace["failed_" + method] = \
            lambda self, *args, _phase=phase: self.profiler._leave(_phase)
    return type(name, (_Phases,), namespace)


_SchedulerPhases = _phase_subscriber("_SchedulerPhases", {"run": "scheduler"})
_HierarchyPhases = _phase_subscriber("_HierarchyPhases", {
    "_access": "access", "_fetch": "snoop", "_scrub_ss_copies": "scrub"})
_CachePhases = _phase_subscriber("_CachePhases", {
    "vid_reset": "scrub", "_process_bucket": "lazy-fold"})
