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
* a thread blocked on a queue keeps the ``Consume`` or ``Produce`` it
  waits on in :attr:`ThreadHandle.blocked`, which the selection sweep
  retries (one ``is not None`` test per live thread);
* an optional :class:`~repro.cpu.interrupts.InterruptInjector` charges
  handler time to whichever thread crossed the interrupt period.

:meth:`Scheduler.run` is the one step path and the only code that gives
an op its meaning.  Each step resumes a generator, then either hands a
queue op to :meth:`Scheduler._queue_step` or runs a core op between one
shared prologue (the start cycle) and one shared epilogue (interrupt
check, clock writes).  The core ops are dispatched on their concrete
class, most frequent first (``Work``, ``Load``, ``Store``, ``Branch``,
then the MTX instructions, ``Arrive`` and ``Output``), and each op bumps
only one count of its class on its :class:`ThreadHandle`: the pc (which
the gshare predictors index by), ``ops_executed`` and the
:class:`~repro.cpu.core_model.ExecStats` of the
:class:`~repro.cpu.core_model.CoreExecutor` are derived from those counts
where read.  Observation hooks in through :attr:`Scheduler.observer`,
which costs an unobserved run two ``is None`` tests per step.

Conservative lookahead covers parked threads.  A thread that yields
:class:`~repro.cpu.isa.SpinUntil` is parked: it polls (one ``Work`` of
``cycles`` each) at its turns while ``until()`` is false and resumes at
the first turn where it holds.  Nothing another thread can observe
changes until some generator resumes, so before each step every parked
thread due ahead of the first thread that can act is charged all its
polls up to that thread's turn in one poll phase (see
:meth:`Scheduler._charge_polls`).  The result is exact: clocks, op
counts and the ``max_steps`` budget count every poll.

That rests on the predicate-purity contract ``SpinUntil`` callers must
keep: ``until`` only reads simulated state, and what it reads changes
only inside a generator (the op it yields included) or an interrupt
handler.  The scheduler re-checks a parked predicate only after one of
those ran.

The inner step loop.  The sweep also records the runner-up's ``(clock,
tid)``, and the poll phase lowers that bound to the earliest parked
thread's.  The thread the sweep picked is stepped again, with no sweep
and no poll phase, while its new ``(clock, tid)`` is still below the
bound, the op was not a queue op, the thread neither parked, unparked
nor finished, and no interrupt fired.  The next sweep would have picked
it again, for two reasons.  A blocked thread becomes
ready only through a queue op, and no other thread's clock moves while
one thread runs (a machine-wide quiesce moves them all, the stepping
thread included, which only makes the bound conservative).  A parked
thread matters only once it is due, and the bound already covers the
earliest one; its predicate is re-checked at the next poll phase, since
every resume moves the epoch.  Each step counts in ``steps``,
``max_steps``, ``ops_executed`` and ``on_step`` alike.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Generator, List, Optional

from ..cpu.core_model import CoreExecutor
from ..cpu.interrupts import InterruptInjector
from ..cpu.isa import (AbortMTX, Arrive, BeginMTX, Branch, CommitMTX,
                       Consume, InitMTX, Load, Op, Output, Produce, SpinUntil,
                       Store, Work)
from ..errors import ReproError
from ..topology import place_core
from .queues import QueueSet

Program = Generator[Op, Any, None]

#: Selection order of threads: smallest clock first, ties by tid.
_clock_tid = attrgetter("clock", "tid")


class DeadlockError(ReproError):
    """Every live thread is blocked on an empty queue."""


class ThreadHandle:
    """One schedulable thread.

    A ``__slots__`` class (not a dataclass): the scheduler's selection
    sweep reads several attributes of every live thread per step, so
    attribute access cost is on the simulator's critical path.
    """

    __slots__ = ("tid", "core", "program", "clock", "done", "blocked",
                 "pending_value", "spin", "spin_rows", "spin_epoch", "work",
                 "work_extra", "loads", "stores", "other", "queue")

    def __init__(self, tid: int, core: int, program: Program,
                 clock: int = 0) -> None:
        self.tid = tid
        self.core = core
        self.program = program
        self.clock = clock
        self.done = False
        #: The queue op this thread is blocked on: a ``Consume`` of an
        #: empty queue or a ``Produce`` into a full one.
        self.blocked: Optional[Op] = None
        #: Value to send into the generator at the next step.
        self.pending_value: Any = None
        #: The :class:`~repro.cpu.isa.SpinUntil` this thread is parked on.
        self.spin: Optional[SpinUntil] = None
        #: Op samples charged to the current spin (sent back on resume).
        self.spin_rows = 0
        #: Scheduler epoch at which ``spin.until()`` last returned False.
        self.spin_epoch = -1
        #: Executed ops by class (``other``: ``Branch`` and the rarer core
        #: ops), and the cycles past the first of its ``Work`` ops.
        self.work = self.work_extra = self.loads = self.stores = 0
        self.other = self.queue = 0

    @property
    def core_ops(self) -> int:
        """Ops that moved the pc: all but the queue ops."""
        return self.work + self.loads + self.stores + self.other

    @property
    def ops_executed(self) -> int:
        return self.core_ops + self.queue

    def __repr__(self) -> str:
        return (f"ThreadHandle(tid={self.tid}, core={self.core}, "
                f"clock={self.clock}, done={self.done}, "
                f"blocked={self.blocked!r})")


@dataclass
class RunResult:
    """Timing outcome of one scheduled run."""

    makespan: int
    thread_clocks: Dict[int, int]
    ops_executed: int

    @property
    def cycles(self) -> int:
        return self.makespan


class Scheduler:
    """Runs a set of thread programs to completion on the simulated machine."""

    def __init__(self, system, executor: Optional[CoreExecutor] = None,
                 interrupts: Optional[InterruptInjector] = None,
                 max_steps: int = 50_000_000) -> None:
        self.system = system
        self.executor = executor or CoreExecutor(system)
        self.queues = QueueSet(latency=system.config.queue_latency)
        self.interrupts = interrupts
        self.max_steps = max_steps
        self.threads: List[ThreadHandle] = []
        self._core_clock: Dict[int, int] = {}
        #: Per-step observer, or None.  :meth:`run` calls its
        #: ``on_step(thread)`` before resuming a thread's generator (or
        #: polling a parked one) and its
        #: ``on_op(tid, op, start, value, latency)`` once a core op
        #: returns, before the interrupt check and the clock writes;
        #: :meth:`_charge_polls` calls its ``on_polls(polls)`` in place of
        #: both for the polls of one phase.
        #: ``ObsSession.attach_scheduler`` installs it.
        self.observer: Any = None
        if hasattr(system, "quiesce_cb"):
            # Late-bound on purpose: a tap subscriber observing
            # ``quiesce_all`` gets it wrapped in the instance dict, and the
            # callback must go through that wrapper to be attributed.  The
            # reference is weak so the system and its scheduler form no
            # cycle: a finished run is freed at once, not at the next full
            # collection.
            scheduler = weakref.ref(self)
            system.quiesce_cb = \
                lambda cycles: scheduler().quiesce_all(cycles)

    def add_thread(self, tid: int, core: int, program: Program,
                   start_clock: int = 0) -> ThreadHandle:
        """Register a thread; also registers its HMTX context."""
        self.system.thread(tid, core)
        handle = self.executor.threads[tid] = ThreadHandle(
            tid=tid, core=core, program=program, clock=start_clock)
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

    def replace_programs(self, programs: Dict[int, Program]) -> None:
        """Swap in fresh generators (abort recovery), keeping clocks."""
        for thread in self.threads:
            if thread.tid in programs:
                thread.program = programs[thread.tid]
                thread.done = False
                thread.blocked = None
                thread.pending_value = None
                thread.spin = None

    def stall_all(self, cycles: int) -> None:
        """Advance every thread and core clock by ``cycles``.

        Models a machine-wide recovery stall — the contention manager's
        backoff delay between a transaction abort and the next speculative
        attempt.  Charging all clocks equally keeps relative thread timing
        (and therefore the conflict-detection interleaving) deterministic.
        """
        self._advance_all(cycles)

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
        self._advance_all(cycles)

    def _advance_all(self, cycles: int) -> None:
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

        This loop is the scheduler's only step path: observed and
        unobserved runs take the same branches.  An :attr:`observer`, if
        installed, is called directly at fixed points of a step and never
        changes what the step does.

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
        interrupts = self.interrupts
        system = self.system
        observer = self.observer
        # Polls are charged in bulk only where no interrupt check can
        # interleave with them.
        bulk_polls = interrupts is None
        work_unit = executor.costs.work_unit
        # Hoisted through the instance, so a tap wrapper installed before
        # the run is still honoured.
        system_load = system.load
        system_store = system.store
        execute_branch = executor._execute_branch
        #: Bumped on every generator resume and every fired interrupt: a
        #: parked thread whose ``spin_epoch`` is older must re-check its
        #: predicate before it may poll again.
        epoch = 0
        #: Threads not yet done and not parked, in registration order (the
        #: order the sweep unblocks queue waiters in) — rebuilt when one
        #: finishes or unparks, so the sweep never rescans them.
        live_threads = [t for t in self.threads
                        if not t.done and t.spin is None]
        #: Threads parked on a SpinUntil; one still parked from an earlier
        #: run re-checks its predicate first.
        parked = [t for t in self.threads if not t.done and t.spin is not None]
        for thread in parked:
            thread.spin_epoch = -1
        while True:
            # Fused sweep: unblock every thread whose queue became ready,
            # while tracking the runnable thread with the smallest (clock,
            # tid) and the runner-up — one pass, no intermediate lists.
            # This loop dominates simulator wall time, hence the
            # hand-tuning.
            best = None
            # Sentinel larger than any reachable clock, so the selection
            # compare needs no ``best is None`` test.
            best_clock = next_clock = 0x7FFFFFFFFFFFFFFF
            best_tid = next_tid = 0
            for thread in live_threads:
                blocked = thread.blocked
                if blocked is not None:
                    if blocked.__class__ is Consume:
                        entry = queues.get(blocked.queue).try_consume(
                            thread.clock)
                        if entry is None:
                            continue
                        value, ready_time = entry
                        if ready_time > thread.clock:
                            thread.clock = ready_time
                        thread.clock += queue_op
                        thread.pending_value = value
                    else:
                        queue = queues.get(blocked.queue)
                        if queue.full():
                            continue
                        # Space appeared when a consumer popped; the
                        # producer's clock advances to that moment
                        # (back-pressure stall).
                        if queue.last_pop_time > thread.clock:
                            thread.clock = queue.last_pop_time
                        thread.clock += queue_op
                        queue.produce(blocked.value, thread.clock)
                    thread.blocked = None
                clock = thread.clock
                if clock < best_clock or (
                        clock == best_clock and thread.tid < best_tid):
                    next_clock = best_clock
                    next_tid = best_tid
                    best = thread
                    best_clock = clock
                    best_tid = thread.tid
                elif clock < next_clock or (
                        clock == next_clock and thread.tid < next_tid):
                    next_clock = clock
                    next_tid = thread.tid
            if parked:
                # Poll phase.  The parked threads due before ``best`` poll
                # while their predicates stay false; the first dirty one
                # whose predicate now holds is itself due to resume, so it
                # bounds the phase instead.
                if len(parked) > 1:
                    parked.sort(key=_clock_tid)
                due = []
                for thread in parked:
                    clock = thread.clock
                    if clock > best_clock or (
                            clock == best_clock and thread.tid > best_tid):
                        break
                    if thread.spin_epoch != epoch:
                        if thread.spin.until():
                            best = thread
                            best_clock = clock
                            best_tid = thread.tid
                            break
                        thread.spin_epoch = epoch
                    due.append(thread)
                if due:
                    charged = 0
                    if bulk_polls and best is not None:
                        charged = self._charge_polls(
                            due, best_clock, best_tid, max_steps - steps)
                    if charged:
                        steps += charged
                    else:
                        best = due[0]
                # The earliest parked thread also bounds the inner loop.
                for thread in parked:
                    clock = thread.clock
                    if clock < next_clock or (
                            clock == next_clock and thread.tid < next_tid):
                        next_clock = clock
                        next_tid = thread.tid
            if best is None:
                if not live_threads:
                    break
                live = [t.tid for t in self.threads if not t.done]
                raise DeadlockError(f"threads {live} all blocked on queues")
            # Inner loop: step ``best``, and again while it stays first
            # (see the module docstring).  The value its generator is sent
            # next lives in ``value`` meanwhile.
            thread = best
            tid = thread.tid
            core = thread.core
            send = thread.program.send
            spin = thread.spin
            if spin is not None:
                # A parked thread's poll (or resume) is a step of its own.
                next_clock = -1
            value = thread.pending_value
            thread.pending_value = None
            while True:
                steps += 1
                if steps > max_steps:
                    raise ReproError(f"exceeded {max_steps} scheduler steps")
                if observer is not None:
                    observer.on_step(thread)
                if spin is not None and thread.spin_epoch == epoch:
                    # Its predicate is still false: one more poll.
                    thread.spin_rows += 1
                    op = Work(spin.cycles)
                    cls = Work
                else:
                    if spin is not None:
                        thread.spin = None
                        value = thread.spin_rows
                        parked.remove(thread)
                        live_threads = [t for t in self.threads
                                        if not t.done and t.spin is None]
                    epoch += 1
                    try:
                        op = send(value)
                        cls = op.__class__
                        while cls is SpinUntil:
                            if not op.until():
                                # Park; this step is the spin's first poll,
                                # and the last of the inner loop.
                                thread.spin = op
                                thread.spin_rows = 1
                                thread.spin_epoch = epoch
                                live_threads.remove(thread)
                                parked.append(thread)
                                next_clock = -1
                                op = Work(op.cycles)
                                cls = Work
                                break
                            op = send(0)
                            cls = op.__class__
                    except StopIteration:
                        thread.done = True
                        live_threads = [t for t in self.threads
                                        if not t.done and t.spin is None]
                        break
                # Prologue: the op starts once both its thread and its core
                # are free.  The thread's clock is re-read, not carried
                # over: the generator may have run a machine-wide quiesce.
                start = core_clock[core]
                if thread.clock > start:
                    start = thread.clock
                # Identity dispatch on the concrete op class (the ISA is a
                # closed set of final classes), ordered by dynamic
                # frequency.  Each op bumps one count of its class.
                if cls is Work:
                    thread.work += 1
                    cycles = op.cycles
                    if cycles > 1:
                        thread.work_extra += cycles - 1
                    value = None
                    latency = cycles * work_unit
                elif cls is Load:
                    thread.loads += 1
                    value, latency = system_load(tid, op.addr, start)
                elif cls is Store:
                    thread.stores += 1
                    value = None
                    latency = system_store(tid, op.addr, op.value, start)[1]
                elif cls is Branch:
                    thread.other += 1
                    value = None
                    latency = execute_branch(tid, op)
                elif cls is Produce or cls is Consume:
                    thread.queue += 1
                    self._queue_step(thread, op, cls)
                    break
                else:
                    thread.other += 1
                    value = None
                    if cls is Arrive:
                        # Open-loop arrival: idle until the request's
                        # timestamp, or — when the core is already past
                        # it — charge nothing and hand the accumulated
                        # queue wait back to the generator.
                        if op.ts > start:
                            value = 0
                            latency = op.ts - start
                        else:
                            value = start - op.ts
                            latency = 0
                    elif cls is BeginMTX:
                        latency = system.begin_mtx(tid, op.vid)
                    elif cls is CommitMTX:
                        latency = system.commit_mtx(tid, op.vid)
                    elif cls is AbortMTX:
                        latency = system.abort_mtx(tid, op.vid)
                    elif cls is InitMTX:
                        latency = system.init_mtx(tid, op.handler)
                    elif cls is Output:
                        system.output(tid, op.value)
                        latency = 1
                    else:
                        raise TypeError(
                            f"the scheduler cannot execute {op!r}")
                # Epilogue, shared by every core op.
                if observer is not None:
                    observer.on_op(tid, op, start, value, latency)
                clock = start + latency
                if interrupts is not None:
                    handler = interrupts.maybe_interrupt(
                        system, tid, core, clock)
                    if handler:
                        clock += handler
                        epoch += 1
                        # Handler code ran: sweep before the next step.
                        next_clock = -1
                thread.clock = clock
                core_clock[core] = clock
                # The thread stays first while it is still ahead of the
                # runner-up and the earliest parked thread (a bound of -1
                # ends the inner loop).
                if not (clock < next_clock or (
                        clock == next_clock and tid < next_tid)):
                    thread.pending_value = value
                    break
        return self.result()

    def result(self) -> RunResult:
        """The timing outcome so far, read off the thread list."""
        thread_clocks = {t.tid: t.clock for t in self.threads}
        return RunResult(
            makespan=max(thread_clocks.values(), default=0),
            thread_clocks=thread_clocks,
            ops_executed=sum(t.ops_executed for t in self.threads),
        )

    def _charge_polls(self, due: List[ThreadHandle], bound_clock: int,
                      bound_tid: int, budget: int) -> int:
        """Charge every poll ``due`` makes before ``(bound_clock,
        bound_tid)`` comes up; returns the steps charged, or 0 (charging
        nothing) when they cannot be charged in bulk exactly.

        Per-step execution would interleave the polls in ``(clock, tid)``
        order, each starting where the thread's previous one ended.  With
        the threads on distinct cores that order changes nothing but the
        step numbering, so each thread's poll count has a closed form: its
        first poll runs at its turn, later ones while their start stays
        ahead of the bound.  Each thread's polls form one op sample; the
        observer's :meth:`on_polls` replays the per-step bookkeeping.  A
        phase that would overrun ``budget`` steps is left to single polls,
        so ``max_steps`` raises at the same step.
        """
        core_clock = self._core_clock
        work_unit = self.executor.costs.work_unit
        cores = set()
        polls = []
        total = 0
        for thread in due:
            core = thread.core
            latency = thread.spin.cycles * work_unit
            if core in cores or latency <= 0:
                return 0
            cores.add(core)
            first = thread.clock
            start = core_clock[core]
            if first > start:
                start = first
            last = bound_clock if thread.tid < bound_tid else bound_clock - 1
            extra = (last - start) // latency
            count = 1 + extra if extra > 0 else 1
            total += count
            polls.append((thread, first, start, count, latency))
        if total > budget:
            return 0
        for thread, _, start, count, latency in polls:
            cycles = thread.spin.cycles
            thread.work += count
            if cycles > 1:
                thread.work_extra += count * (cycles - 1)
            thread.spin_rows += 1
            thread.clock = core_clock[thread.core] = start + count * latency
        if self.observer is not None:
            self.observer.on_polls(polls)
        return total

    # ------------------------------------------------------------------

    def op_start(self, thread: ThreadHandle) -> int:
        """Cycle ``thread``'s next op starts at: once both the thread and
        its core are free.  :meth:`run` inlines this as its prologue; the
        value holds until the op returns, since a step writes its clocks
        only in the epilogue."""
        start = self._core_clock[thread.core]
        return thread.clock if thread.clock > start else start

    def _queue_step(self, thread: ThreadHandle, op: Op, cls: type) -> None:
        """One ``Produce``/``Consume`` step of :meth:`run`: queue ops
        block or charge the queue latency instead of reaching the
        executor."""
        if cls is Produce:
            queue = self.queues.get(op.queue)
            if queue.full():
                thread.blocked = op
                return
            start = self.op_start(thread)
            thread.clock = start + self.system.config.op_costs.queue_op
            self._core_clock[thread.core] = thread.clock
            queue.produce(op.value, thread.clock)
            return
        # Consume (cls is Consume by elimination).
        entry = self.queues.get(op.queue).try_consume(thread.clock)
        if entry is None:
            thread.blocked = op
            return
        value, ready_time = entry
        start = max(self.op_start(thread), ready_time)
        thread.clock = start + self.system.config.op_costs.queue_op
        self._core_clock[thread.core] = thread.clock
        thread.pending_value = value
