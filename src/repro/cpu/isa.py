"""Instruction IR executed by the simulated cores.

Workload programs are Python generators that *yield* these operations and
receive load results back (coroutine style), which lets value-dependent
control flow — pointer chasing, data-dependent branches — run against the
simulated memory exactly as the real benchmarks do against DRAM.

The MTX instructions mirror section 3.1 of the paper:

* :class:`BeginMTX` — ``beginMTX(VID)``: set the per-thread VID register;
  VID 0 returns to non-speculative execution *without* committing.
* :class:`CommitMTX` — ``commitMTX(VID)``: atomically group-commit the MTX.
* :class:`AbortMTX` — ``abortMTX(VID)``: software-triggered abort (e.g.
  control-flow misspeculation detected in a later pipeline stage).
* :class:`InitMTX` — ``initMTX(pc)``: register the recovery handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple


class Op:
    """Base class for all simulated operations.

    Ops are immutable-by-convention value objects.  They were frozen
    dataclasses originally, but a workload generator yields one object
    per simulated op, so construction cost is on the simulator's
    critical path — hand-written ``__slots__`` classes construct ~2-3x
    faster than ``@dataclass(frozen=True)`` (whose ``__init__`` routes
    every field write through ``object.__setattr__``).  Equality, hashing
    and ``repr`` keep the dataclass conventions.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self.__slots__))


class Load(Op):
    """Load the word at ``addr``; the generator receives the value."""

    __slots__ = ("addr",)

    def __init__(self, addr: int) -> None:
        self.addr = addr


class Store(Op):
    """Store ``value`` to the word at ``addr``."""

    __slots__ = ("addr", "value")

    def __init__(self, addr: int, value: int) -> None:
        self.addr = addr
        self.value = value


class Work(Op):
    """``cycles`` of pure computation (no memory traffic)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        self.cycles = cycles


class Branch(Op):
    """A conditional branch (or a burst of them).

    ``taken`` is the architecturally correct outcome; the core's branch
    predictor guesses, and on a mispredict the pipeline executes
    ``wrong_path_loads`` — loads whose squashing is exactly what the SLA
    mechanism of section 5.1 must tolerate — before the penalty is paid and
    the correct path resumes.

    ``count`` folds a burst of ``count`` branches interleaved with
    ``work_cycles`` cycles of straight-line compute into one op, so
    branch-dense code regions keep the simulator's op count manageable
    while the predictor still sees every branch.
    """

    __slots__ = ("taken", "wrong_path_loads", "count", "work_cycles")

    def __init__(self, taken: bool,
                 wrong_path_loads: Tuple[int, ...] = (),
                 count: int = 1, work_cycles: int = 0) -> None:
        self.taken = taken
        self.wrong_path_loads = wrong_path_loads
        self.count = count
        self.work_cycles = work_cycles


class Arrive(Op):
    """Open-loop request arrival: wait until simulated time ``ts``.

    Service workloads (:mod:`repro.svc`) attach a pre-computed arrival
    timestamp to each request so threads experience *queueing* rather
    than closed-loop lockstep: if the core reaches this op before
    ``ts``, it idles until the request exists; if it reaches it late,
    the op is free and the generator receives the accumulated queue
    wait (``now - ts``) as the op's value.  The op never touches the
    memory system, so it is speculation-neutral — replaying it after an
    abort just re-reads the (now past) arrival time.
    """

    __slots__ = ("ts",)

    def __init__(self, ts: int) -> None:
        self.ts = ts


class SpinUntil(Op):
    """Spin-wait: burn ``cycles`` of work per poll until ``until()`` holds.

    The op stands for the loop ::

        rows = 0
        while not until():
            yield Work(cycles)
            rows += 1

    and the generator receives ``rows``.  Yielding it lets the scheduler
    park the thread and charge many polls in one step (see
    :mod:`repro.runtime.scheduler`); every poll still counts as one
    executed op.  When the scheduler charges several polls at once they
    form one op sample, so the value sent back is the number of op
    samples the spin produced, which is what an observer's spin retag
    needs; it equals the poll count whenever polls are charged singly.

    ``until`` must be read-only, and its result may change only when
    some thread's generator runs or an interrupt handler fires.
    """

    __slots__ = ("until", "cycles")

    def __init__(self, until: Callable[[], bool], cycles: int) -> None:
        self.until = until
        self.cycles = cycles


class BeginMTX(Op):
    """``beginMTX(VID)``; VID 0 resumes non-speculative execution."""

    __slots__ = ("vid",)

    def __init__(self, vid: int) -> None:
        self.vid = vid


class CommitMTX(Op):
    """``commitMTX(VID)``: atomic group commit of the whole MTX."""

    __slots__ = ("vid",)

    def __init__(self, vid: int) -> None:
        self.vid = vid


class AbortMTX(Op):
    """``abortMTX(VID)``: software-detected misspeculation."""

    __slots__ = ("vid",)

    def __init__(self, vid: int) -> None:
        self.vid = vid


class InitMTX(Op):
    """``initMTX(pc)``: register recovery code for this thread."""

    __slots__ = ("handler",)

    def __init__(self, handler: Any) -> None:
        self.handler = handler


class Produce(Op):
    """Enqueue ``value`` on inter-thread queue ``queue`` (DSWP plumbing)."""

    __slots__ = ("queue", "value")

    def __init__(self, queue: str, value: Any) -> None:
        self.queue = queue
        self.value = value


class Consume(Op):
    """Dequeue from ``queue``; blocks until a value is available."""

    __slots__ = ("queue",)

    def __init__(self, queue: str) -> None:
        self.queue = queue


class Output(Op):
    """Program output, buffered until commit (section 4.7)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


@dataclass
class OpCosts:
    """Base cycle costs of non-memory operations (Table 2 machine).

    Memory-op latency comes from the cache hierarchy; these are the
    front-end costs layered on top.
    """

    work_unit: int = 1
    branch: int = 1
    branch_mispredict_penalty: int = 14
    mtx_instruction: int = 2
    queue_op: int = 4


def format_trace(ops: List[Op], limit: Optional[int] = 20) -> str:
    """Pretty-print an op list (debugging/teaching aid)."""
    shown = ops if limit is None else ops[:limit]
    lines = [f"  {i:4d}: {op!r}" for i, op in enumerate(shown)]
    if limit is not None and len(ops) > limit:
        lines.append(f"  ... ({len(ops) - limit} more)")
    return "\n".join(lines)
