"""Differential test of the scheduler's inner step loop and op counts.

:meth:`Scheduler.run` steps the thread it just ran again, without a
sweep, while that thread stays ahead of the runner-up and of every
parked thread, and it bumps one count per op class, from which the pc,
``ops_executed`` and :class:`~repro.cpu.core_model.ExecStats` are derived.
The reference here is :func:`reference_run`, the same loop without the
inner loop: it sweeps every live thread and runs the poll phase before
every step, and it keeps an explicit :class:`Ledger` of every counter,
bumped per op.  Both must agree on everything the simulation produces:
clocks, executed ops, the step count (the ``max_steps`` cut included),
the observer's ``on_step``/``on_op``/``on_polls`` sequence, the pc at
every branch-predictor read, executor and system statistics, memory and
the workload's result.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HMTXSystem
from repro.core.config import MachineConfig
from repro.cpu.branch import GsharePredictor
from repro.cpu.core_model import CoreExecutor, ExecStats
from repro.cpu.interrupts import InterruptInjector
from repro.cpu.isa import (AbortMTX, Arrive, BeginMTX, Branch, CommitMTX,
                           Consume, InitMTX, Load, Output, Produce,
                           SpinUntil, Store, Work)
from repro.errors import ReproError
from repro.runtime import scheduler as scheduler_module
from repro.runtime.paradigms import run_workload
from repro.runtime.scheduler import (DeadlockError, RunResult, Scheduler,
                                     ThreadHandle)
from repro.workloads import calibrated_executor_factory, make_benchmark

from tests.runtime.test_spin_differential import FAMILIES as SPIN_FAMILIES
from tests.runtime.test_spin_differential import _snapshot


class Ledger:
    """The counters as the scheduler bumped them before they were
    derived: a pc per thread, moved one slot per core op, the executor's
    instruction, load and store counts, and ``ops_executed`` per thread."""

    def __init__(self) -> None:
        self.pc: Dict[int, int] = {}
        self.ops: Dict[int, int] = {}
        self.instructions = 0
        self.loads = 0
        self.stores = 0

    def exec_stats(self, executor: CoreExecutor) -> ExecStats:
        """The mix, with what the branch path adds itself."""
        branch = executor._branch_mix
        return ExecStats(
            instructions=self.instructions + branch.instructions,
            loads=self.loads, stores=self.stores,
            branches=branch.branches, mispredicts=branch.mispredicts)


def _execute(scheduler: Scheduler, tid: int, op, start: int):
    """``(value, latency)`` of one core op, with :meth:`Scheduler.run`'s
    accounting kept in the scheduler's :class:`Ledger`."""
    executor = scheduler.executor
    ledger = scheduler.ledger
    system = scheduler.system
    cls = op.__class__
    ledger.instructions += max(op.cycles, 1) if cls is Work else 1
    ledger.pc[tid] = ledger.pc.get(tid, 0) + 4
    if cls is Work:
        return None, op.cycles * executor.costs.work_unit
    if cls is Load:
        ledger.loads += 1
        return system.load(tid, op.addr, start)
    if cls is Store:
        ledger.stores += 1
        return None, system.store(tid, op.addr, op.value, start)[1]
    if cls is Branch:
        return None, executor._execute_branch(tid, op)
    if cls is Arrive:
        return (0, op.ts - start) if op.ts > start else (start - op.ts, 0)
    if cls is BeginMTX:
        return None, system.begin_mtx(tid, op.vid)
    if cls is CommitMTX:
        return None, system.commit_mtx(tid, op.vid)
    if cls is AbortMTX:
        return None, system.abort_mtx(tid, op.vid)
    if cls is InitMTX:
        return None, system.init_mtx(tid, op.handler)
    if cls is Output:
        system.output(tid, op.value)
        return None, 1
    raise TypeError(f"the scheduler cannot execute {op!r}")


def _count_op(scheduler: Scheduler, thread) -> None:
    ops = scheduler.ledger.ops
    ops[thread.tid] = ops.get(thread.tid, 0) + 1


def _charge_polls(self: Scheduler, due, bound_clock, bound_tid, budget):
    """:meth:`Scheduler._charge_polls`, with the polls it charged (as the
    observer was told them) counted in the ledger."""
    charged = Scheduler._charge_polls(self, due, bound_clock, bound_tid,
                                      budget)
    if charged:
        kind, polls = self.observer.log[-1]
        assert kind == "polls"
        ledger = self.ledger
        cycles = {thread.tid: thread.spin.cycles for thread in due}
        for tid, _, _, count, _ in polls:
            ledger.instructions += count * max(cycles[tid], 1)
            ledger.pc[tid] = ledger.pc.get(tid, 0) + 4 * count
            ledger.ops[tid] = ledger.ops.get(tid, 0) + count
    return charged


def _unblock(scheduler: Scheduler, thread) -> bool:
    """The sweep's queue check for one live thread; True if runnable."""
    queue_op = scheduler.system.config.op_costs.queue_op
    blocked = thread.blocked
    if blocked is None:
        return True
    if isinstance(blocked, Consume):
        entry = scheduler.queues.get(blocked.queue).try_consume(thread.clock)
        if entry is None:
            return False
        value, ready_time = entry
        thread.clock = max(thread.clock, ready_time) + queue_op
        thread.pending_value = value
    else:
        queue = scheduler.queues.get(blocked.queue)
        if queue.full():
            return False
        thread.clock = max(thread.clock, queue.last_pop_time) + queue_op
        queue.produce(blocked.value, thread.clock)
    thread.blocked = None
    return True


def reference_run(self: Scheduler):
    """:meth:`Scheduler.run` without step reuse: every step sweeps the
    live threads and runs the poll phase."""
    key = attrgetter("clock", "tid")
    charge_polls = _charge_polls.__get__(self)
    steps = 0
    epoch = 0
    observer = self.observer
    interrupts = self.interrupts
    for thread in self.threads:
        if not thread.done and thread.spin is not None:
            thread.spin_epoch = -1
    while True:
        live = [t for t in self.threads if not t.done and t.spin is None]
        runnable = [t for t in live if _unblock(self, t)]
        best = min(runnable, key=key, default=None)
        due = []
        for thread in sorted((t for t in self.threads
                              if not t.done and t.spin is not None),
                             key=key):
            if best is not None and key(thread) > key(best):
                break
            if thread.spin_epoch != epoch:
                if thread.spin.until():
                    best = thread
                    break
                thread.spin_epoch = epoch
            due.append(thread)
        if due:
            charged = 0
            if interrupts is None and best is not None:
                charged = charge_polls(due, best.clock, best.tid,
                                       self.max_steps - steps)
            if charged:
                steps += charged
            else:
                best = due[0]
        if best is None:
            if not live:
                return self.result()
            raise DeadlockError("all blocked on queues")
        steps += 1
        if steps > self.max_steps:
            raise ReproError(f"exceeded {self.max_steps} scheduler steps")
        thread = best
        if observer is not None:
            observer.on_step(thread)
        spin = thread.spin
        if spin is not None and thread.spin_epoch == epoch:
            thread.spin_rows += 1
            _count_op(self, thread)
            op = Work(spin.cycles)
        else:
            if spin is not None:
                thread.spin = None
                thread.pending_value = thread.spin_rows
            epoch += 1
            try:
                op = thread.program.send(thread.pending_value)
                while op.__class__ is SpinUntil:
                    if not op.until():
                        thread.spin = op
                        thread.spin_rows = 1
                        thread.spin_epoch = epoch
                        op = Work(op.cycles)
                        break
                    op = thread.program.send(0)
            except StopIteration:
                thread.done = True
                continue
            thread.pending_value = None
            _count_op(self, thread)
        if op.__class__ is Produce or op.__class__ is Consume:
            self._queue_step(thread, op, op.__class__)
            continue
        start = self.op_start(thread)
        value, latency = _execute(self, thread.tid, op, start)
        if observer is not None:
            observer.on_op(thread.tid, op, start, value, latency)
        clock = start + latency
        if interrupts is not None:
            handler = interrupts.maybe_interrupt(self.system, thread.tid,
                                                 thread.core, clock)
            if handler:
                clock += handler
                epoch += 1
        thread.clock = self._core_clock[thread.core] = clock
        thread.pending_value = value


_result = Scheduler.result


def reference_result(self: Scheduler) -> RunResult:
    """:meth:`Scheduler.result` with ``ops_executed`` from the ledger."""
    result = _result(self)
    result.ops_executed = sum(self.ledger.ops.values())
    return result


def instrument(scheduler: Scheduler, reference: bool) -> "Recorder":
    """Install a :class:`Recorder` and log every pc read; the reference
    reads the pc from its ledger."""
    recorder = Recorder()
    scheduler.observer = recorder
    executor = scheduler.executor
    if reference:
        scheduler.ledger = Ledger()
        pcs = scheduler.ledger.pc

        def source(tid):
            return pcs.get(tid, 0)
    else:
        source = executor.pc

    def pc(tid):
        value = source(tid)
        recorder.log.append(("pc", tid, value))
        return value

    executor.pc = pc
    return recorder


class Recorder:
    """A scheduler observer logging every callback."""

    def __init__(self) -> None:
        self.log = []

    def on_step(self, thread) -> None:
        self.log.append(("step", thread.tid, thread.clock))

    def on_op(self, tid, op, start, value, latency) -> None:
        self.log.append(("op", tid, op.__class__.__name__, start, value,
                         latency))

    def on_polls(self, polls) -> None:
        self.log.append(("polls", [(thread.tid, first, start, count, lat)
                                   for thread, first, start, count, lat
                                   in polls]))

    @property
    def steps(self) -> int:
        """Steps taken: stepped ones plus polls charged in bulk."""
        return sum(1 if entry[0] == "step" else
                   sum(poll[3] for poll in entry[1])
                   for entry in self.log if entry[0] in ("step", "polls"))

    @property
    def pc_reads(self) -> int:
        return sum(entry[0] == "pc" for entry in self.log)


def _memory(system) -> Dict[str, Any]:
    timing = getattr(system, "timing", None)
    if timing is not None:
        return {"lines": dict(system.memory.backing._lines)}
    hierarchy = system.hierarchy
    return {"lines": dict(hierarchy.memory._lines),
            "caches": {cache.name: _snapshot(cache.stats)
                       for cache in hierarchy._caches}}


def _outcome(scheduler, recorder, system,
             reference: bool) -> Dict[str, Any]:
    """What a run produced; the reference's counters come from its
    ledger, the scheduler's are derived from the op counts."""
    executor = scheduler.executor
    if reference:
        ledger = scheduler.ledger
        ops = [ledger.ops.get(t.tid, 0) for t in scheduler.threads]
        pcs = {t.tid: ledger.pc.get(t.tid, 0) for t in scheduler.threads}
        exec_stats = ledger.exec_stats(executor)
    else:
        ops = [t.ops_executed for t in scheduler.threads]
        pcs = {t.tid: CoreExecutor.pc(executor, t.tid)
               for t in scheduler.threads}
        exec_stats = executor.stats
    return {
        "threads": [(t.tid, t.core, t.clock, n, t.done)
                    for t, n in zip(scheduler.threads, ops)],
        "pcs": pcs,
        "core_clocks": dict(scheduler._core_clock),
        "steps": recorder.steps,
        "observer": recorder.log,
        "exec_stats": _snapshot(exec_stats),
        "system_stats": _snapshot(system.stats),
        "memory": _memory(system),
    }


#: Step budgets, so that a scheduler bug which keeps a thread runnable
#: fails in seconds instead of running to the scheduler's default of
#: 50,000,000 steps.  A case's first run gets a fixed cap, about ten
#: times the largest case (some 37k steps); the run compared with it
#: gets BUDGET_FACTOR times the first run's count.
FIRST_RUN_STEPS = 400_000
BUDGET_FACTOR = 4


def run_case(case: Dict[str, Any], reference: bool,
             max_steps: Optional[int] = None,
             budget: int = FIRST_RUN_STEPS) -> Dict[str, Any]:
    """Run one drawn workload case; returns everything compared.

    ``max_steps`` cuts the run and records the error it raises;
    ``budget`` only caps it: running past it raises.
    """
    schedulers = []
    recorders = []
    add_thread = Scheduler.add_thread

    def tracked_add_thread(self, tid, core, program, start_clock=0):
        if self not in schedulers:
            schedulers.append(self)
            recorders.append(instrument(self, reference))
            self.max_steps = budget if max_steps is None else max_steps
        return add_thread(self, tid, core, program, start_clock)

    workload = case["make"]()
    kwargs = dict(case["kwargs"])
    if case["period"]:
        kwargs["interrupts"] = InterruptInjector(period=case["period"],
                                                 handler_accesses=2,
                                                 handler_compute=30)
    out: Dict[str, Any] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scheduler, "add_thread", tracked_add_thread)
        if reference:
            patch.setattr(Scheduler, "run", reference_run)
            patch.setattr(Scheduler, "result", reference_result)
        try:
            result = run_workload(workload, case["config"],
                                  paradigm=case["paradigm"], **kwargs)
        except ReproError as err:
            if max_steps is None:
                raise
            out["error"] = str(err)
            result = None
    (scheduler,) = schedulers
    out.update(_outcome(scheduler, recorders[0], scheduler.system,
                        reference))
    if kwargs.get("interrupts") is not None:
        out["interrupts"] = (kwargs["interrupts"].fired,
                             dict(kwargs["interrupts"]._next_fire))
    if result is not None:
        out["run"] = _snapshot(result.run)
        out["correct"] = (workload.observed_result(result.system)
                          == workload.expected_result(result.system))
    return out


#: The spin differential test's families (run_workload's default
#: executor: organic gshare predictors), plus SMTX under PS-DSWP, the
#: calibrated predictors the experiment drivers use (they never read the
#: pc) and gshare chosen explicitly on a workload with wrong-path loads.
FAMILIES = SPIN_FAMILIES + [
    ("ps-dswp-smtx", "PS-DSWP",
     lambda seed: (lambda: make_benchmark("ispell", 0.3)),
     {"backend": "smtx"}),
    ("ps-dswp-calibrated", "PS-DSWP",
     lambda seed: (lambda: make_benchmark("197.parser", 0.3)),
     {"executor_factory": calibrated_executor_factory(
         make_benchmark("197.parser", 0.3).mispredict_rate)}),
    ("ps-dswp-gshare", "PS-DSWP",
     lambda seed: (lambda: make_benchmark("197.parser", 0.3)),
     {"executor_factory": lambda system: CoreExecutor(
         system, predictor_factory=GsharePredictor)}),
]


@st.composite
def cases(draw):
    label, paradigm, make, kwargs = draw(st.sampled_from(FAMILIES))
    return {
        "label": label,
        "paradigm": paradigm,
        "make": make(draw(st.integers(1, 50))),
        "kwargs": kwargs,
        "config": MachineConfig(num_cores=draw(st.sampled_from((2, 3, 4))),
                                vid_bits=draw(st.sampled_from((3, 4, 6)))),
        "period": draw(st.sampled_from((0, 0, 0, 700, 2500))),
    }


_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


class TestStepReuse:
    @_SETTINGS
    @given(case=cases())
    def test_run_matches_a_sweep_every_step(self, case):
        expected = run_case(case, reference=True)
        actual = run_case(case, reference=False,
                          budget=BUDGET_FACTOR * expected["steps"])
        assert actual == expected
        assert actual["correct"]

    @_SETTINGS
    @given(case=cases(), cut=st.floats(0.05, 0.95))
    def test_max_steps_raises_at_the_same_step(self, case, cut):
        full = run_case(case, reference=True)
        limit = max(1, int(full["steps"] * cut))
        expected = run_case(case, reference=True, max_steps=limit)
        actual = run_case(case, reference=False, max_steps=limit)
        assert actual == expected
        # Recovery restarts the step count, so a run that aborted may fit
        # the budget in every attempt; one that never aborted cannot.
        if not full["system_stats"]["aborted"]:
            assert expected["error"] == f"exceeded {limit} scheduler steps"

    def test_gshare_pc_reads_agree(self):
        # The pc feeds only gshare's index; this family reads it on both
        # of the executor's branch paths (with and without wrong-path
        # loads), so every read is compared.
        label, paradigm, make, kwargs = FAMILIES[-1]
        assert label == "ps-dswp-gshare"
        case = {"label": label, "paradigm": paradigm, "make": make(1),
                "kwargs": kwargs, "config": MachineConfig(num_cores=4),
                "period": 0}
        expected = run_case(case, reference=True)
        actual = run_case(case, reference=False,
                          budget=BUDGET_FACTOR * expected["steps"])
        assert actual == expected
        reads = [entry for entry in actual["observer"] if entry[0] == "pc"]
        assert len(reads) > 100
        assert len({pc for _, _, pc in reads}) > 100

    def test_runs_skip_most_sweeps(self):
        # The families must exercise reuse: count the sweep's reads of
        # ``blocked`` (one per live thread per sweep) on a DOACROSS
        # run, where each thread runs its iteration's ops back to back.
        case = {"label": "doacross-li", "paradigm": "DOACROSS",
                "make": FAMILIES[2][2](1), "kwargs": {},
                "config": MachineConfig(num_cores=4), "period": 0}
        reads = {}
        for reference in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(scheduler_module, "ThreadHandle",
                              CountingHandle)
                CountingHandle.reads = 0
                out = run_case(case, reference=reference)
            reads[reference] = CountingHandle.reads
        assert out["correct"]
        assert reads[False] < reads[True] // 2


class CountingHandle(ThreadHandle):
    """A thread handle counting reads of ``blocked``."""

    __slots__ = ()
    reads = 0

    @property
    def blocked(self):
        CountingHandle.reads += 1
        return ThreadHandle.blocked.__get__(self)

    @blocked.setter
    def blocked(self, op):
        ThreadHandle.blocked.__set__(self, op)


# ----------------------------------------------------------------------
# Synthetic programs: ties, shared cores, queues and spins, drawn densely
# ----------------------------------------------------------------------

def _synthetic_program(plan, counter, tid):
    for kind, arg in plan:
        if kind == "work":
            yield Work(arg)
        elif kind == "produce":
            yield Produce("q", tid * 1000 + arg)
        elif kind == "consume":
            yield Consume("q")
        else:
            yield SpinUntil(lambda arg=arg: counter[0] >= arg, 3)
            counter[0] += 1


@st.composite
def synthetic(draw):
    threads = draw(st.integers(1, 5))
    plans = {tid: [("work", draw(st.integers(0, 6)))
                   for _ in range(draw(st.integers(1, 12)))]
             for tid in range(threads)}
    if threads > 1:
        # One producer and one consumer share a queue, with as many
        # consumes as produces, at drawn positions.
        items = draw(st.integers(0, 20))
        for tid, kind in ((0, "produce"), (threads - 1, "consume")):
            for item in range(items):
                plan = plans[tid]
                plan.insert(draw(st.integers(0, len(plan))), (kind, item))
    # Ordered waits: the wait on target ``k`` spins until ``k`` waits have
    # passed; each thread meets its targets in increasing order.
    last = dict.fromkeys(plans, 0)
    for target, tid in enumerate(draw(st.lists(
            st.integers(0, threads - 1), max_size=6))):
        plan = plans[tid]
        at = draw(st.integers(last[tid], len(plan)))
        plan.insert(at, ("wait", target))
        last[tid] = at + 1
    cores = draw(st.integers(1, threads))
    return {"plans": plans,
            "placement": {tid: draw(st.integers(0, cores - 1))
                          for tid in range(threads)},
            "cores": cores,
            "starts": {tid: draw(st.integers(0, 4)) for tid in range(threads)},
            "period": draw(st.sampled_from((0, 0, 29, 100)))}


def run_synthetic(chain, reference: bool, max_steps: int = 3_000):
    system = HMTXSystem(MachineConfig(num_cores=max(2, chain["cores"])))
    interrupts = (InterruptInjector(period=chain["period"],
                                    handler_accesses=1, handler_compute=5)
                  if chain["period"] else None)
    scheduler = Scheduler(system, interrupts=interrupts,
                          max_steps=max_steps)
    recorder = instrument(scheduler, reference)
    counter = [0]
    for tid, plan in sorted(chain["plans"].items()):
        scheduler.add_thread(tid, chain["placement"][tid],
                             _synthetic_program(plan, counter, tid),
                             start_clock=chain["starts"][tid])
    out: Dict[str, Any] = {}
    try:
        (reference_run if reference else Scheduler.run)(scheduler)
    except ReproError as err:
        out["error"] = str(err)
    out.update(_outcome(scheduler, recorder, system, reference))
    return out


class TestSyntheticReuse:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(chain=synthetic())
    def test_run_matches_a_sweep_every_step(self, chain):
        expected = run_synthetic(chain, reference=True)
        assert run_synthetic(chain, reference=False) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(chain=synthetic(), cut=st.floats(0.0, 1.0))
    def test_max_steps_raises_at_the_same_step(self, chain, cut):
        full = run_synthetic(chain, reference=True)
        limit = int(full["steps"] * cut)
        expected = run_synthetic(chain, reference=True, max_steps=limit)
        assert run_synthetic(chain, reference=False,
                             max_steps=limit) == expected
        if limit < full["steps"] and "error" not in full:
            assert expected["error"] == f"exceeded {limit} scheduler steps"
