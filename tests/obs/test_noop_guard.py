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

import gc
import weakref

import pytest

from repro.core import HMTXSystem, MachineConfig
from repro.cpu.isa import AbortMTX, BeginMTX, Load, Work
from repro.errors import MisspeculationError
from repro.experiments.phase_profile import PhaseProfiler
from repro.obs import hooks, tap
from repro.obs.session import ObsSession
from repro.obs.tap import Tap
from repro.runtime.paradigms import run_workload
from repro.runtime.scheduler import Scheduler
from repro.obs.trace import BackendTracer, ProtocolTracer
from repro.txctl import ContentionManager, make_policy
from repro.workloads.contended import HighContentionListWorkload

from tests.integration.test_fastpath_golden import (
    _run_capacity_hog,
    _run_contended_list,
    _run_fig8_slice,
    snapshot,
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

    def test_tapped_system_is_freed_without_a_collection(self):
        """A tap wrapper reaches the object it sits on weakly: a system
        whose subscribers are never detached forms no reference cycle, so
        dropping it frees it, its hierarchy and its main memory at once,
        not at the next full garbage collection."""

        class Loads:
            count = 0

            def after_load(self, result, tid, addr, now=0):
                Loads.count += 1

        system = HMTXSystem(MachineConfig(num_cores=2))
        system.thread(0, core=0)
        subscribers = [Loads(), PhaseProfiler()]
        tap.subscribe(system, subscribers[0])
        subscribers[1].attach_system(system)
        system.store(0, 0x40, 1)
        assert system.load(0, 0x40)[0] == 1
        assert Loads.count == 1
        gc.disable()
        try:
            refs = [weakref.ref(system), weakref.ref(system.hierarchy),
                    weakref.ref(system.hierarchy.memory)]
            del system
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


def closure_patch(obj, name, calls):
    """Replace ``obj.<name>`` with a plain ``traced(*args, **kwargs)``
    closure that logs each call, the way an outside-in span tracer
    patches instance methods."""
    original = getattr(obj, name)

    def traced(*args, **kwargs):
        calls.append((name, args, kwargs))
        return original(*args, **kwargs)

    setattr(obj, name, traced)
    return traced


class TestTapStacking:
    """The tap derives a wrapper's parameter list once per underlying
    function; a method another layer already replaced with a
    ``(*args, **kwargs)`` closure must still get every argument, run
    after run."""

    def test_closure_patched_methods_get_every_argument(self):
        for _ in range(2):
            # The class's own load and store are wrapped first.
            ObsSession().attach_system(HMTXSystem(MachineConfig()))
            system = HMTXSystem(MachineConfig(num_cores=2))
            system.thread(0, core=0)
            calls = []
            traced = {name: closure_patch(system, name, calls)
                      for name in ("load", "store")}
            session = ObsSession()
            session.attach_system(system)
            assert system.load is not traced["load"]
            system.store(0, 0x40, 7)
            assert system.load(0, 0x40, now=5)[0] == 7
            assert system.load(0, 0x80)[0] == 0
            assert calls == [("store", (0, 0x40, 7), {}),
                             ("load", (0, 0x40), {"now": 5}),
                             ("load", (0, 0x80), {})]
            assert session.line_access_counts == {0x40: 2, 0x80: 1}
            session.detach()
            assert vars(system)["load"] is traced["load"]
            assert vars(system)["store"] is traced["store"]

    def test_observed_runs_of_closure_patched_systems(self):
        def run(observer=None, calls=None):
            def factory():
                system = HMTXSystem(MachineConfig())
                if calls is not None:
                    for name in ("load", "store", "commit_mtx"):
                        closure_patch(system, name, calls)
                return system

            workload = HighContentionListWorkload(nodes=24,
                                                  rmw_per_iteration=2)
            manager = ContentionManager(policy=make_policy("backoff"))
            if observer is None:
                return snapshot(run_workload(workload, paradigm="PS-DSWP",
                                             manager=manager,
                                             system_factory=factory),
                                workload)
            with observer.activate():
                result = run_workload(workload, paradigm="PS-DSWP",
                                      manager=manager, system_factory=factory)
            observer.detach()
            return snapshot(result, workload)

        plain = run()
        for _ in range(2):
            calls = []
            session = ObsSession()
            assert run(session, calls) == plain
            counted = sum(
                value for name, value in session.registry.collect()
                ["counters"].items()
                if name.startswith("mem_accesses_total"))
            # An access that misspeculates reaches failed_<method>, not
            # the access counters.
            failed = sum(1 for event in session.events
                         if event["kind"] == "conflict"
                         and event["op"] in ("load", "store"))
            accesses = sum(1 for name, _, _ in calls
                           if name in ("load", "store"))
            assert accesses == counted + failed and counted > 0
            assert sum(1 for name, _, _ in calls if name == "commit_mtx") \
                == sum(1 for event in session.events
                       if event["kind"] == "commit") > 0


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
