"""S6: the instrumentation-off regression guard.

Three guarantees, in increasing strength:

1. The hook point defaults to ``None`` — no session, no wrapping, the
   simulator runs its unmodified methods (the fast-path goldens in
   ``tests/integration/test_fastpath_golden.py`` then pin bit-identical
   behaviour end to end).
2. Activating and detaching a session leaves no residue: a run *after*
   an observed run is bit-identical to a run that never saw one.
3. Observation itself is behaviour-free: the snapshot of an *observed*
   run equals the snapshot of an unobserved run, counter for counter —
   for every tap subscriber (the obs session, the race-check ring, the
   protocol tracer and the wall-time phase profiler).

Observed runs also take the scheduler's one step path: the session is
the scheduler's per-step observer, and nothing wraps the executor.
"""

from __future__ import annotations

import pytest

from repro.core import HMTXSystem, MachineConfig
from repro.cpu.isa import AbortMTX, BeginMTX, Load, Work
from repro.errors import MisspeculationError
from repro.experiments.phase_profile import PhaseProfiler
from repro.obs import hooks
from repro.obs.session import ObsSession
from repro.obs.tap import Tap
from repro.runtime.scheduler import Scheduler
from repro.trace import BackendTracer, ProtocolTracer

from tests.integration.test_fastpath_golden import (
    _run_capacity_hog,
    _run_contended_list,
    _run_fig8_slice,
)


class TestHookDefault:
    def test_hook_point_defaults_to_none(self):
        assert hooks.active is None

    def test_deactivate_is_idempotent(self):
        hooks.deactivate()
        assert hooks.active is None


class TestNoResidue:
    def test_run_after_observed_run_is_bit_identical(self):
        baseline = _run_contended_list()
        session = ObsSession()
        with session.activate():
            _run_contended_list()
        session.detach()
        assert hooks.active is None
        again = _run_contended_list()
        assert again == baseline

    def test_exception_inside_activation_clears_hook(self):
        try:
            with ObsSession().activate():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert hooks.active is None


def observed_scheduler(num_cores):
    system = HMTXSystem(MachineConfig(num_cores=num_cores))
    scheduler = Scheduler(system)
    session = ObsSession()
    session.attach_system(system)
    session.attach_scheduler(scheduler)
    return system, scheduler, session


class TestOneStepPath:
    def test_session_observes_steps_without_wrapping_the_executor(self):
        _, scheduler, session = observed_scheduler(num_cores=2)
        assert scheduler.observer is session
        assert not hasattr(scheduler.executor, "execute")

        def program():
            yield Work(3)
            yield Load(0x40)

        scheduler.add_thread(0, 0, program())
        result = scheduler.run()
        # One sample per core op, each starting where the previous ended.
        (_, _, s0, l0, _, _), (_, _, s1, l1, _, _) = session.samples
        assert (s0, s1, s1 + l1) == (0, l0, result.makespan)
        session.detach()
        assert scheduler.observer is None

    def test_event_times_follow_where_events_are_raised(self):
        # Two threads share core 0, and thread 0's work keeps the core's
        # clock ahead of thread 1's own: the two clocks an event can see
        # differ at every step of thread 1.
        system, scheduler, session = observed_scheduler(num_cores=1)

        def runner():
            yield Work(10)
            yield Work(10)

        def speculator():
            vid = system.allocate_vid()  # raised in the generator
            yield BeginMTX(vid)
            yield AbortMTX(vid)  # unwinds out of run

        scheduler.add_thread(0, 0, runner())
        speculator_thread = scheduler.add_thread(1, 0, speculator(),
                                                 start_clock=1)
        with pytest.raises(MisspeculationError):
            scheduler.run()
        work, begin, work_again = session.samples
        times = {e["kind"]: e["ts"] for e in session.events}
        assert times["allocate"] == 1  # the thread's clock
        assert times["begin"] == begin[2] == work[3]  # the op's start
        assert times["abort"] == work_again[2] + work_again[3]
        assert speculator_thread.clock < times["abort"]
        # The session is left outside any op: a generator-side event
        # raised after the unwind takes the thread's clock again.
        system.allocate_vid()
        assert session.events[-1]["ts"] == speculator_thread.clock


#: Every tap subscriber, and the stream proving it saw the run.
SUBSCRIBERS = {
    "obs-session": (ObsSession, lambda session: session.samples),
    "trace-ring": (BackendTracer, lambda ring: ring.events),
    "protocol-tracer": (ProtocolTracer, lambda tracer: tracer.events),
    # Every timed call, aborted ones included, has left the phase stack.
    "phase-profiler": (PhaseProfiler, lambda profiler:
                       profiler.calls["access"] and not profiler._stack),
}


@pytest.mark.parametrize("subscriber", sorted(SUBSCRIBERS))
class TestObservationIsBehaviourFree:
    """An instrumented run must be simulation-identical: same makespan,
    same stats, same cache counters, same workload result."""

    def _observed(self, subscriber, run):
        make, recorded = SUBSCRIBERS[subscriber]
        observer = make()
        with Tap(observer).activate():
            snap = run()
        observer.detach()
        assert recorded(observer), "the subscriber observed nothing"
        return snap

    def test_contended_list_identical_under_observation(self, subscriber):
        assert self._observed(subscriber, _run_contended_list) \
            == _run_contended_list()

    def test_capacity_hog_identical_under_observation(self, subscriber):
        assert self._observed(subscriber, _run_capacity_hog) \
            == _run_capacity_hog()

    def test_fig8_benchmark_identical_under_observation(self, subscriber):
        run = lambda: _run_fig8_slice("ispell")  # noqa: E731
        assert self._observed(subscriber, run) == run()
