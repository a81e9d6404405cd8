"""Conservative discrete-event scheduler for the simulated multicore.

Threads are Python generators yielding :mod:`repro.cpu.isa` ops.  The
scheduler always advances the runnable thread with the smallest clock, so
memory operations reach the coherence protocol in (approximate) global time
order — the property the conflict-detection logic relies on.

Timing model:

* each core serialises the ops of the threads placed on it (no SMT);
* ``Produce``/``Consume`` go through :class:`~repro.runtime.queues.TimedQueue`
  with a one-way inter-core latency;
* a consumer blocking on an empty queue releases its core and resumes at
  ``max(own clock, producer clock + queue latency)``;
* an optional :class:`~repro.cpu.interrupts.InterruptInjector` charges
  handler time to whichever thread crossed the interrupt period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..cpu.core_model import CoreExecutor
from ..cpu.interrupts import InterruptInjector
from ..cpu.isa import Branch, Consume, Load, Op, Produce, Store, Work
from ..errors import ReproError
from ..topology import place_core
from .queues import QueueSet

Program = Generator[Op, Any, None]


class DeadlockError(ReproError):
    """Every live thread is blocked on an empty queue."""


class ThreadHandle:
    """One schedulable thread.

    A ``__slots__`` class (not a dataclass): the scheduler's selection
    sweep reads several attributes of every live thread per step, so
    attribute access cost is on the simulator's critical path.
    """

    __slots__ = ("tid", "core", "program", "clock", "done", "blocked_on",
                 "blocked_produce", "pending_value", "ops_executed")

    def __init__(self, tid: int, core: int, program: Program,
                 clock: int = 0, done: bool = False,
                 blocked_on: Optional[str] = None,
                 blocked_produce: Optional[tuple] = None,
                 pending_value: Any = None, ops_executed: int = 0) -> None:
        self.tid = tid
        self.core = core
        self.program = program
        self.clock = clock
        self.done = done
        #: Queue this thread is blocked consuming from (empty queue).
        self.blocked_on = blocked_on
        #: (queue, value) this thread is blocked producing into (full queue).
        self.blocked_produce = blocked_produce
        #: Value to send into the generator at the next step.
        self.pending_value = pending_value
        self.ops_executed = ops_executed

    def __repr__(self) -> str:
        return (f"ThreadHandle(tid={self.tid}, core={self.core}, "
                f"clock={self.clock}, done={self.done}, "
                f"blocked_on={self.blocked_on!r}, "
                f"blocked_produce={self.blocked_produce!r})")


@dataclass
class RunResult:
    """Timing outcome of one scheduled run."""

    makespan: int
    thread_clocks: Dict[int, int]
    core_clocks: Dict[int, int]
    ops_executed: int

    @property
    def cycles(self) -> int:
        return self.makespan


class Scheduler:
    """Runs a set of thread programs to completion on the simulated machine."""

    def __init__(self, system, executor: Optional[CoreExecutor] = None,
                 queues: Optional[QueueSet] = None,
                 interrupts: Optional[InterruptInjector] = None,
                 max_steps: int = 50_000_000) -> None:
        self.system = system
        self.executor = executor or CoreExecutor(system)
        self.queues = queues or QueueSet(latency=system.config.queue_latency)
        self.interrupts = interrupts
        self.max_steps = max_steps
        self.threads: List[ThreadHandle] = []
        self._core_clock: Dict[int, int] = {}
        if hasattr(system, "quiesce_cb"):
            # Late-bound on purpose: a tap subscriber observing
            # ``quiesce_all`` gets it wrapped in the instance dict, and the
            # callback must go through that wrapper to be attributed.
            system.quiesce_cb = lambda cycles: self.quiesce_all(cycles)

    def add_thread(self, tid: int, core: int, program: Program,
                   start_clock: int = 0) -> ThreadHandle:
        """Register a thread; also registers its HMTX context."""
        self.system.thread(tid, core)
        handle = ThreadHandle(tid=tid, core=core, program=program,
                              clock=start_clock)
        self.threads.append(handle)
        self._core_clock.setdefault(core, 0)
        return handle

    def place_core(self, index: int) -> int:
        """Core for the ``index``-th worker under the machine's placement.

        Paradigms route their worker→core mapping through here so the
        ``MachineConfig.placement`` knob (``pack``/``spread``) and the
        socket topology apply uniformly; on a flat machine this is the
        historical ``index % num_cores``.
        """
        config = self.system.config
        return place_core(index, config.num_cores,
                          getattr(config, "topology", None),
                          getattr(config, "placement", "pack"))

    def socket_of(self, core: int) -> int:
        """Socket owning ``core`` (0 on flat machines)."""
        topology = getattr(self.system.config, "topology", None)
        return 0 if topology is None else topology.socket_of_core(core)

    def replace_programs(self, programs: Dict[int, Program]) -> None:
        """Swap in fresh generators (abort recovery), keeping clocks."""
        for thread in self.threads:
            if thread.tid in programs:
                thread.program = programs[thread.tid]
                thread.done = False
                thread.blocked_on = None
                thread.blocked_produce = None
                thread.pending_value = None

    def stall_all(self, cycles: int) -> None:
        """Advance every thread and core clock by ``cycles``.

        Models a machine-wide recovery stall — the contention manager's
        backoff delay between a transaction abort and the next speculative
        attempt.  Charging all clocks equally keeps relative thread timing
        (and therefore the conflict-detection interleaving) deterministic.
        """
        if cycles <= 0:
            return
        for thread in self.threads:
            thread.clock += cycles
        for core in self._core_clock:
            self._core_clock[core] += cycles

    def quiesce_all(self, cycles: int) -> None:
        """Machine-wide quiesce barrier: the section 4.6 reset scrub.

        Same clock mechanics as :meth:`stall_all` (every thread and core
        advances together, so relative timing and conflict interleaving
        are untouched), but a separate entry point so the observability
        layer can attribute the stalled cycles to ``vid_reset`` rather
        than contention-manager backoff.  Installed on the system as
        ``quiesce_cb``: the reset is triggered from inside a thread's
        generator, which has no scheduler reference of its own.
        """
        if cycles <= 0:
            return
        for thread in self.threads:
            thread.clock += cycles
        for core in self._core_clock:
            self._core_clock[core] += cycles

    def now(self) -> int:
        """The latest per-thread clock (current machine time)."""
        return max((t.clock for t in self.threads), default=0)

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Run until every thread's generator is exhausted.

        Raises :class:`~repro.errors.MisspeculationError` if speculation
        fails (callers implement recovery) and :class:`DeadlockError` if all
        live threads block on empty queues.
        """
        steps = 0
        max_steps = self.max_steps
        queues = self.queues
        queue_op = self.system.config.op_costs.queue_op
        core_clock = self._core_clock
        executor = self.executor
        execute = executor.execute
        interrupts = self.interrupts
        system = self.system
        # The tap wraps _step / executor.execute as instance attributes
        # when a subscriber observes them (the obs session does); the fused
        # step below would bypass those wrappers, so observed runs keep the
        # exact per-step call sequence.
        instrumented = ("_step" in self.__dict__
                        or "execute" in executor.__dict__)
        # Work/Load/Store/Branch cover almost every op a workload yields;
        # they are fused below (exactly what CoreExecutor.execute does for
        # each class, without the dispatch) when the executor is a plain
        # CoreExecutor.  system.load/store are hoisted through the
        # instance, so a tap wrapper installed before the run is still
        # honoured.
        fuse_work = not instrumented and executor.__class__ is CoreExecutor
        estats = executor.stats
        epc = executor._pc
        work_unit = executor.costs.work_unit
        system_load = system.load
        system_store = system.store
        execute_branch = executor._execute_branch
        #: Threads not yet done — rebuilt when one finishes, so the sweep
        #: never rescans completed threads.
        live_threads = [t for t in self.threads if not t.done]
        while True:
            # Fused sweep: unblock every thread whose queue became ready
            # (exactly what _collect_runnable does), while tracking the
            # runnable thread with the smallest (clock, tid) — one pass,
            # no intermediate lists.  This loop dominates simulator wall
            # time, hence the hand-tuning.
            best = None
            # Sentinel larger than any reachable clock, so the selection
            # compare needs no ``best is None`` test per thread.
            best_clock = 0x7FFFFFFFFFFFFFFF
            best_tid = 0
            for thread in live_threads:
                if thread.blocked_on is not None:
                    entry = queues.get(thread.blocked_on).try_consume(
                        thread.clock)
                    if entry is None:
                        continue
                    value, ready_time = entry
                    if ready_time > thread.clock:
                        thread.clock = ready_time
                    thread.clock += queue_op
                    thread.pending_value = value
                    thread.blocked_on = None
                elif thread.blocked_produce is not None:
                    queue_name, value = thread.blocked_produce
                    queue = queues.get(queue_name)
                    if queue.full():
                        continue
                    # Space appeared when a consumer popped; the producer's
                    # clock advances to that moment (back-pressure stall).
                    if queue.last_pop_time > thread.clock:
                        thread.clock = queue.last_pop_time
                    thread.clock += queue_op
                    queue.produce(value, thread.clock)
                    thread.blocked_produce = None
                clock = thread.clock
                if clock < best_clock or (
                        clock == best_clock and thread.tid < best_tid):
                    best = thread
                    best_clock = clock
                    best_tid = thread.tid
            if not live_threads:
                break
            if best is None:
                live = [t.tid for t in self.threads if not t.done]
                raise DeadlockError(f"threads {live} all blocked on queues")
            # Inlined _step for the dominant plain-op case (same logic,
            # minus one call frame and the attribute reloads per step);
            # queue ops fall back to the shared helper.
            thread = best
            if instrumented:
                self._step(thread)
                if thread.done:
                    live_threads = [t for t in self.threads if not t.done]
                steps += 1
                if steps > max_steps:
                    raise ReproError(f"exceeded {max_steps} scheduler steps")
                continue
            try:
                op = thread.program.send(thread.pending_value)
            except StopIteration:
                thread.done = True
                live_threads = [t for t in self.threads if not t.done]
                op = None
            if op is not None:
                thread.pending_value = None
                thread.ops_executed += 1
                cls = op.__class__
                if fuse_work and cls is Work:
                    core = thread.core
                    start = core_clock[core]
                    if best_clock > start:
                        start = best_clock
                    cycles = op.cycles
                    estats.instructions += cycles if cycles > 1 else 1
                    epc[thread.tid] += 4
                    clock = start + cycles * work_unit
                    if interrupts is not None:
                        clock += interrupts.maybe_interrupt(
                            system, thread.tid, core, clock)
                    thread.clock = clock
                    core_clock[core] = clock
                    thread.pending_value = None
                elif fuse_work and cls is Load:
                    core = thread.core
                    start = core_clock[core]
                    if best_clock > start:
                        start = best_clock
                    estats.instructions += 1
                    estats.loads += 1
                    epc[thread.tid] += 4
                    result = system_load(thread.tid, op.addr, start)
                    clock = start + result.latency
                    if interrupts is not None:
                        clock += interrupts.maybe_interrupt(
                            system, thread.tid, core, clock)
                    thread.clock = clock
                    core_clock[core] = clock
                    thread.pending_value = result.value
                elif fuse_work and cls is Store:
                    core = thread.core
                    start = core_clock[core]
                    if best_clock > start:
                        start = best_clock
                    estats.instructions += 1
                    estats.stores += 1
                    epc[thread.tid] += 4
                    result = system_store(thread.tid, op.addr, op.value,
                                          start)
                    clock = start + result.latency
                    if interrupts is not None:
                        clock += interrupts.maybe_interrupt(
                            system, thread.tid, core, clock)
                    thread.clock = clock
                    core_clock[core] = clock
                    thread.pending_value = None
                elif fuse_work and cls is Branch:
                    core = thread.core
                    start = core_clock[core]
                    if best_clock > start:
                        start = best_clock
                    estats.instructions += 1
                    epc[thread.tid] += 4
                    clock = start + execute_branch(thread.tid, op)
                    if interrupts is not None:
                        clock += interrupts.maybe_interrupt(
                            system, thread.tid, core, clock)
                    thread.clock = clock
                    core_clock[core] = clock
                    thread.pending_value = None
                elif cls is not Produce and cls is not Consume:
                    core = thread.core
                    start = core_clock[core]
                    if best_clock > start:
                        start = best_clock
                    value, latency = execute(thread.tid, op, start)
                    clock = start + latency
                    if interrupts is not None:
                        clock += interrupts.maybe_interrupt(
                            system, thread.tid, core, clock)
                    thread.clock = clock
                    core_clock[core] = clock
                    thread.pending_value = value
                else:
                    self._queue_step(thread, op, cls)
            steps += 1
            if steps > max_steps:
                raise ReproError(f"exceeded {max_steps} scheduler steps")
        thread_clocks = {t.tid: t.clock for t in self.threads}
        return RunResult(
            makespan=max(thread_clocks.values(), default=0),
            thread_clocks=thread_clocks,
            core_clocks=dict(self._core_clock),
            ops_executed=sum(t.ops_executed for t in self.threads),
        )

    # ------------------------------------------------------------------

    def _collect_runnable(self) -> Optional[List[ThreadHandle]]:
        """Unblock consumers whose queues filled; None when all are done.

        Reference implementation of the sweep that :meth:`run` fuses into
        its selection loop; kept for tests and interactive debugging.
        """
        live = [t for t in self.threads if not t.done]
        if not live:
            return None
        runnable = []
        for thread in live:
            if thread.blocked_on is not None:
                entry = self.queues.get(thread.blocked_on).try_consume(thread.clock)
                if entry is None:
                    continue
                value, ready_time = entry
                thread.clock = max(thread.clock, ready_time)
                thread.clock += self.system.config.op_costs.queue_op
                thread.pending_value = value
                thread.blocked_on = None
            elif thread.blocked_produce is not None:
                queue_name, value = thread.blocked_produce
                queue = self.queues.get(queue_name)
                if queue.full():
                    continue
                # Space appeared when a consumer popped; the producer's
                # clock advances to that moment (back-pressure stall).
                thread.clock = max(thread.clock, queue.last_pop_time)
                thread.clock += self.system.config.op_costs.queue_op
                queue.produce(value, thread.clock)
                thread.blocked_produce = None
            runnable.append(thread)
        return runnable

    def _step(self, thread: ThreadHandle) -> None:
        try:
            op = thread.program.send(thread.pending_value)
        except StopIteration:
            thread.done = True
            return
        thread.pending_value = None
        thread.ops_executed += 1
        cls = type(op)
        if cls is not Produce and cls is not Consume:
            # Hot path: plain core op — no queue interaction.
            core = thread.core
            core_clock = self._core_clock
            clock = thread.clock
            start = core_clock[core]
            if clock > start:
                start = clock
            value, latency = self.executor.execute(thread.tid, op, now=start)
            clock = start + latency
            if self.interrupts is not None:
                clock += self.interrupts.maybe_interrupt(
                    self.system, thread.tid, core, clock)
            thread.clock = clock
            core_clock[core] = clock
            thread.pending_value = value
            return
        self._queue_step(thread, op, cls)

    def _queue_step(self, thread: ThreadHandle, op: Op, cls: type) -> None:
        """Produce/Consume handling shared by :meth:`run` and :meth:`_step`."""
        if cls is Produce:
            queue = self.queues.get(op.queue)
            if queue.full():
                thread.blocked_produce = (op.queue, op.value)
                return
            start = max(thread.clock, self._core_clock[thread.core])
            thread.clock = start + self.system.config.op_costs.queue_op
            self._core_clock[thread.core] = thread.clock
            queue.produce(op.value, thread.clock)
            return
        # Consume (cls is Consume by elimination).
        entry = self.queues.get(op.queue).try_consume(thread.clock)
        if entry is None:
            thread.blocked_on = op.queue
            return
        value, ready_time = entry
        start = max(thread.clock, self._core_clock[thread.core], ready_time)
        thread.clock = start + self.system.config.op_costs.queue_op
        self._core_clock[thread.core] = thread.clock
        thread.pending_value = value
