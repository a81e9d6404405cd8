"""Code generation: a pipeline plan becomes a runnable workload.

The generated :class:`CompiledWorkload` plugs straight into the runtime's
paradigm executors.  Its key property — the one HMTX exists to provide —
is that **all cross-statement dataflow goes through simulated memory**:

* loop-carried scalars (the pointer chase) are single memory words whose
  per-iteration values are distinct *versions* in the cache hierarchy, so
  stage 1's chain and stage 1 -> stage 2 forwarding both ride on
  uncommitted value forwarding, exactly like Figure 3's ``producedNode``;
* speculated may-dependences need no generated checks: if the rare write
  manifests, the hardware's conflict detection aborts and the runtime
  re-executes from committed state.  Because *all* loop state lives in
  versioned memory, recovery needs no register checkpoints — the committed
  scalar values ARE the resume state.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..cpu.isa import Branch, Load, Store, Work
from ..workloads.base import Fragment, Workload
from .loopir import Loop, Statement
from .partition import PipelinePlan, plan_pipeline

SCALAR_BASE = 0x8000_0000
ARRAY_BASE = 0x9000_0000
ARRAY_STRIDE = 1 << 24          # address space per array
LINE = 64


class CompiledWorkload(Workload):
    """A loop compiled for speculative pipeline execution on HMTX."""

    def __init__(self, loop: Loop, plan: PipelinePlan) -> None:
        self.loop = loop
        self.plan = plan
        self.name = f"compiled:{loop.name}"
        self.iterations = loop.iterations
        self.paradigm = plan.recommended_paradigm
        self._scalar_addr: Dict[str, int] = {}
        self._array_base: Dict[str, int] = {}
        for idx, (name, loc) in enumerate(sorted(loop.locations.items())):
            if loc.is_scalar:
                self._scalar_addr[name] = SCALAR_BASE + len(self._scalar_addr) * LINE
            else:
                self._array_base[name] = ARRAY_BASE + len(self._array_base) * ARRAY_STRIDE

    # ------------------------------------------------------------------
    # Address binding
    # ------------------------------------------------------------------

    def addr_of(self, location: str, i: int) -> int:
        loc = self.loop.locations[location]
        if loc.is_scalar:
            return self._scalar_addr[location]
        return self._array_base[location] + i * LINE

    # ------------------------------------------------------------------
    # Workload interface
    # ------------------------------------------------------------------

    def setup(self, system) -> None:
        memory = system.hierarchy.memory
        for name, loc in self.loop.locations.items():
            if loc.is_scalar:
                memory.write_word(self._scalar_addr[name], loc.init)
            elif loc.init:
                for i in range(self.iterations):
                    memory.write_word(self.addr_of(name, i), loc.init)

    def _execute(self, statements: List[Statement], i: int) -> Fragment:
        """Run statements for iteration ``i`` against simulated memory."""
        for stmt in statements:
            env: Dict[str, int] = {}
            for loc in stmt.reads:
                env[loc] = yield Load(self.addr_of(loc, i))
            if stmt.work:
                yield Work(stmt.work)
            if stmt.branches:
                taken = (i * 7 + len(stmt.name)) % 4 != 0
                yield Branch(taken=taken, count=stmt.branches)
            result = stmt.compute(i, env)
            for loc in stmt.all_writes():
                if loc in result:
                    yield Store(self.addr_of(loc, i), result[loc] & 0xFFFFFFFF)

    def stage1_iteration(self, i: int, carry: Any) -> Fragment:
        # Loop-carried state lives in versioned memory, not registers:
        # there is no carry to thread through, and abort recovery resumes
        # from the committed scalar values automatically.
        yield from self._execute(self.plan.stage1, i)
        return None

    def stage2_iteration(self, i: int) -> Fragment:
        yield from self._execute(self.plan.stage2, i)

    def stage2_epilogue(self, i: int) -> Fragment:
        yield from self._execute(self.plan.stage3, i)

    def doall_iteration(self, i: int) -> Fragment:
        """Independent-iteration body (when the plan recommends DOALL)."""
        if self.plan.stage1:
            raise NotImplementedError(
                f"{self.name} has a sequential stage; use PS-DSWP")
        yield from self._execute(self.plan.stage2, i)

    def sequential_iteration(self, i: int, carry: Any) -> Fragment:
        yield from self._execute(self.loop.statements, i)
        return None

    def initial_carry(self, system) -> Any:
        return None

    def recover_carry(self, system, iteration: int) -> Any:
        return None

    # ------------------------------------------------------------------
    # SMTX hooks
    # ------------------------------------------------------------------

    def smtx_minimal_addresses(self) -> frozenset:
        """Scalars are the cross-stage channels an expert would validate."""
        return frozenset(self._scalar_addr.values())

    def smtx_shared_regions(self):
        spans = [(addr, addr + 8) for addr in self._scalar_addr.values()]
        for base in self._array_base.values():
            spans.append((base, base + self.iterations * LINE))
        return spans

    # ------------------------------------------------------------------
    # Correctness
    # ------------------------------------------------------------------

    def expected_result(self, system) -> int:
        return self._fold(self.loop.interpret())

    def observed_result(self, system) -> int:
        state: Dict[str, object] = {}
        for name in self._scalar_addr:
            state[name] = system.hierarchy.read_committed(
                self._scalar_addr[name])
        for name in self._array_base:
            state[name] = [
                system.hierarchy.read_committed(self.addr_of(name, i))
                for i in range(self.iterations)
            ]
        return self._fold(state)

    def _fold(self, state: Dict[str, object]) -> int:
        digest = 0
        for name in sorted(state):
            value = state[name]
            if isinstance(value, list):
                for v in value:
                    digest = (digest * 31 + v) & 0xFFFFFFFF
            else:
                digest = (digest * 31 + value) & 0xFFFFFFFF
        return digest


def compile_loop(loop: Loop) -> CompiledWorkload:
    """The compiler's front door: loop IR in, runnable pipeline out."""
    return CompiledWorkload(loop, plan_pipeline(loop))
