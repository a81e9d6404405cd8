"""Differential test of the scheduler's spin fast-forward.

The scheduler parks a thread that yields :class:`~repro.cpu.isa.SpinUntil`
and charges its polls in bulk.  The reference here is a test-side adapter
that expands every ``SpinUntil`` back into the loop it stands for — one
``Work(cycles)`` per poll while ``until()`` is false, then the poll count
sent back — so the scheduler sees only ordinary ops and steps each poll
singly.  Both runs must agree on everything the simulation produces:
clocks, executed ops, executor and system statistics, and (observed) the
obs digest, the runnable-thread track and the spin-cycle counters.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HMTXSystem
from repro.core.config import MachineConfig
from repro.cpu.interrupts import InterruptInjector
from repro.cpu.isa import SpinUntil, Work
from repro.errors import ReproError
from repro.obs.profile import attribute, digest
from repro.obs.session import ObsSession
from repro.runtime.paradigms import run_workload
from repro.runtime.scheduler import Scheduler
from repro.workloads import make_benchmark
from repro.workloads.suite import make_workload


def expand_spins(program):
    """``program`` with every ``SpinUntil`` replaced by its poll loop."""
    value = None
    while True:
        try:
            op = program.send(value)
        except StopIteration as stop:
            return stop.value
        if op.__class__ is SpinUntil:
            polls = 0
            while not op.until():
                yield Work(op.cycles)
                polls += 1
            value = polls
        else:
            value = yield op


def _snapshot(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {f.name: _snapshot(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _snapshot(v) for k, v in value.items()}
    return value


def run_case(case: Dict[str, Any], expand: bool, observe: bool,
             max_steps: Optional[int] = None) -> Dict[str, Any]:
    """Run one drawn case; returns everything the comparison checks."""
    schedulers = []
    add_thread = Scheduler.add_thread
    replace_programs = Scheduler.replace_programs

    def wrap(program):
        return expand_spins(program) if expand else program

    def tracked_add_thread(self, tid, core, program, start_clock=0):
        if self not in schedulers:
            schedulers.append(self)
            if max_steps is not None:
                self.max_steps = max_steps
        return add_thread(self, tid, core, wrap(program), start_clock)

    def tracked_replace_programs(self, programs):
        replace_programs(self, {tid: wrap(program)
                                for tid, program in programs.items()})

    workload = case["make"]()
    kwargs = dict(case["kwargs"])
    if case["period"]:
        kwargs["interrupts"] = InterruptInjector(period=case["period"],
                                                 handler_accesses=2,
                                                 handler_compute=30)
    session = ObsSession() if observe else None
    out: Dict[str, Any] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scheduler, "add_thread", tracked_add_thread)
        patch.setattr(Scheduler, "replace_programs", tracked_replace_programs)
        try:
            if session is not None:
                with session.activate():
                    result = run_workload(workload, case["config"],
                                          paradigm=case["paradigm"], **kwargs)
                session.detach()
            else:
                result = run_workload(workload, case["config"],
                                      paradigm=case["paradigm"], **kwargs)
        except ReproError as err:
            if max_steps is None:
                raise
            out["error"] = str(err)
            result = None
    (scheduler,) = schedulers
    out["threads"] = [(t.tid, t.core, t.clock, t.ops_executed, t.done)
                      for t in scheduler.threads]
    out["core_clocks"] = dict(scheduler._core_clock)
    out["exec_stats"] = _snapshot(scheduler.executor.stats)
    out["system_stats"] = _snapshot(scheduler.system.stats)
    if kwargs.get("interrupts") is not None:
        out["interrupts"] = (kwargs["interrupts"].fired,
                             dict(kwargs["interrupts"]._next_fire))
    if result is not None:
        out["run"] = _snapshot(result.run)
        out["correct"] = (workload.observed_result(result.system)
                          == workload.expected_result(result.system))
    if session is not None and result is not None:
        session.finalize(result)
        out["digest"] = digest(session, attribute(session))
        out["runnable_track"] = list(session.runnable_track)
        out["spin_cycles"] = {
            name: value for name, value
            in session.registry.collect()["counters"].items()
            if name.startswith("spin_cycles_total")}
        out["samples_cycles"] = sum(row[3] for row in session.samples)
    return out


def _svc(name: str):
    return lambda seed: (lambda: make_workload(name, 0.08, seed=seed))


#: (label, paradigm, workload factory taking a seed, paradigm kwargs)
FAMILIES = [
    ("doall-alvinn", "DOALL",
     lambda seed: (lambda: make_benchmark("052.alvinn", 0.3)), {}),
    ("doall-oversubscribed", "DOALL",
     lambda seed: (lambda: make_benchmark("052.alvinn", 0.3)),
     {"workers": 6}),
    ("doacross-li", "DOACROSS",
     lambda seed: (lambda: make_benchmark("130.li", 1.0)), {}),
    ("ps-dswp-ispell", "PS-DSWP",
     lambda seed: (lambda: make_benchmark("ispell", 0.3)), {}),
    ("ps-dswp-oversubscribed", "PS-DSWP",
     lambda seed: (lambda: make_benchmark("456.hmmer", 0.3)),
     {"stage2_workers": 4}),
    ("svc-kv", "DOALL", _svc("svc-kv"), {}),
    ("svc-oltp", "DOALL", _svc("svc-oltp"), {}),
]


@st.composite
def cases(draw):
    label, paradigm, make, kwargs = draw(st.sampled_from(FAMILIES))
    cores = draw(st.sampled_from((2, 3, 4)))
    vid_bits = draw(st.sampled_from((3, 4, 6)))
    return {
        "label": label,
        "paradigm": paradigm,
        "make": make(draw(st.integers(1, 50))),
        "kwargs": kwargs,
        "config": MachineConfig(num_cores=cores, vid_bits=vid_bits),
        "period": draw(st.sampled_from((0, 0, 0, 700, 2500))),
    }


_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


class TestSpinFastForward:
    @_SETTINGS
    @given(case=cases(), observe=st.booleans())
    def test_parked_run_matches_expanded_polls(self, case, observe):
        expected = run_case(case, expand=True, observe=observe)
        actual = run_case(case, expand=False, observe=observe)
        assert actual == expected
        assert actual["correct"]

    @_SETTINGS
    @given(case=cases(), cut=st.floats(0.05, 0.95))
    def test_max_steps_raises_at_the_same_step(self, case, cut):
        full = run_case(case, expand=True, observe=False)
        steps = sum(thread[3] for thread in full["threads"])
        limit = max(1, int(steps * cut))
        expected = run_case(case, expand=True, observe=False,
                            max_steps=limit)
        actual = run_case(case, expand=False, observe=False, max_steps=limit)
        assert actual == expected
        # Recovery restarts the step count, so a run that aborted may fit
        # the budget in every attempt; one that never aborted cannot.
        if not full["system_stats"]["aborted"]:
            assert expected["error"] == f"exceeded {limit} scheduler steps"

    def test_runs_park_and_charge_in_bulk(self):
        # The families above must actually exercise the fast-forward:
        # a fixed svc case spends most of its steps parked.
        case = {"label": "svc-oltp", "paradigm": "DOALL",
                "make": _svc("svc-oltp")(3), "kwargs": {},
                "config": MachineConfig(num_cores=4), "period": 0}
        charged = []
        bulk = Scheduler._charge_polls

        def counting(self, *args):
            steps = bulk(self, *args)
            charged.append(steps)
            return steps

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Scheduler, "_charge_polls", counting)
            out = run_case(case, expand=False, observe=True)
        total = sum(thread[3] for thread in out["threads"])
        assert sum(charged) > total // 4
        assert out == run_case(case, expand=True, observe=True)


# ----------------------------------------------------------------------
# Synthetic programs: ties, shared cores and budgets, drawn densely
# ----------------------------------------------------------------------

def _chain_program(plan, counter, log, tid, interrupts):
    """Work ops and ordered waits: a wait on target ``k`` spins until
    ``k`` bumps happened, then bumps (the in-order commit shape); an
    ``irq`` wait spins until that many interrupts have fired."""
    for kind, arg in plan:
        if kind == "work":
            yield Work(arg)
        elif kind == "irq":
            yield SpinUntil(lambda arg=arg: interrupts.fired >= arg, 4)
            log.append((tid, "irq", interrupts.fired))
        else:
            polls = yield SpinUntil(lambda arg=arg: counter[0] >= arg, 4)
            log.append((tid, arg, polls > 0))
            counter[0] += 1


@st.composite
def chains(draw):
    threads = draw(st.integers(1, 5))
    waits = draw(st.lists(st.integers(0, threads - 1), max_size=12))
    plans = {tid: [] for tid in range(threads)}
    for tid in range(threads):
        plans[tid].append(("work", draw(st.integers(1, 9))))
    for target, tid in enumerate(waits):
        plans[tid].append(("wait", target))
        for _ in range(draw(st.integers(0, 2))):
            plans[tid].append(("work", draw(st.integers(1, 13))))
    cores = draw(st.integers(1, threads))
    placement = {tid: draw(st.integers(0, cores - 1))
                 for tid in range(threads)}
    period = draw(st.sampled_from((0, 0, 0, 37, 150)))
    if period and draw(st.booleans()):
        plan = plans[draw(st.integers(0, threads - 1))]
        plan.insert(draw(st.integers(1, len(plan))),
                    ("irq", draw(st.integers(1, 4))))
    return {"plans": plans, "cores": cores, "placement": placement,
            "period": period, "observe": draw(st.booleans())}


def run_chain(chain, expand: bool, max_steps: int = 10_000):
    system = HMTXSystem(MachineConfig(num_cores=max(2, chain["cores"])))
    interrupts = (InterruptInjector(period=chain["period"],
                                    handler_accesses=1, handler_compute=5)
                  if chain["period"] else None)
    scheduler = Scheduler(system, interrupts=interrupts,
                          max_steps=max_steps)
    session = None
    if chain["observe"]:
        session = ObsSession()
        session.attach_system(system)
        session.attach_scheduler(scheduler)
    counter, log = [0], []
    for tid, plan in sorted(chain["plans"].items()):
        program = _chain_program(plan, counter, log, tid, interrupts)
        scheduler.add_thread(tid, chain["placement"][tid],
                             expand_spins(program) if expand else program)
    out: Dict[str, Any] = {}
    try:
        result = scheduler.run()
    except ReproError as err:
        out["error"] = str(err)
        result = None
    if session is not None:
        session.detach()
    out["log"] = log
    out["threads"] = [(t.tid, t.clock, t.ops_executed, t.done)
                      for t in scheduler.threads]
    out["core_clocks"] = dict(scheduler._core_clock)
    out["exec_stats"] = _snapshot(scheduler.executor.stats)
    if result is not None:
        out["run"] = _snapshot(result)
    if session is not None and result is not None:
        session.finalize(result)
        out["digest"] = digest(session, attribute(session))
        out["runnable_track"] = list(session.runnable_track)
    return out


class TestSyntheticSpins:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chain=chains())
    def test_parked_run_matches_expanded_polls(self, chain):
        expected = run_chain(chain, expand=True)
        assert "error" not in expected
        assert run_chain(chain, expand=False) == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(chain=chains(), cut=st.floats(0.0, 1.0))
    def test_max_steps_raises_at_the_same_step(self, chain, cut):
        steps = sum(t[2] for t in run_chain(chain, expand=True)["threads"])
        limit = int(steps * cut)
        expected = run_chain(chain, expand=True, max_steps=limit)
        assert run_chain(chain, expand=False, max_steps=limit) == expected
        if limit < steps:
            assert expected["error"] == f"exceeded {limit} scheduler steps"
