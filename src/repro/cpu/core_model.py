"""Core execution model: per-thread branch prediction and the instruction mix.

:meth:`Scheduler.run <repro.runtime.scheduler.Scheduler.run>` gives every
op of the instruction IR (:mod:`repro.cpu.isa`) its meaning; the
:class:`CoreExecutor` holds the per-core state that loop charges: the
branch predictors, each thread's pc, the :class:`ExecStats` instruction
mix and the op costs.  The timing model is deliberately simple — a fixed
cost per non-memory op, hierarchy-provided latency for memory ops, and a
mispredict penalty with wrong-path load side effects — because the
paper's phenomena live in the memory system, not in out-of-order
scheduling detail.

Wrong-path loads are the one microarchitectural detail HMTX *does* depend
on (section 5.1): on a mispredicted branch, the loads listed on the op's
wrong path execute (moving data and, without SLAs, marking lines) before the
squash.  Their latency hides under the mispredict penalty, as it would in an
out-of-order core.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .branch import BranchPredictor, CalibratedPredictor, GsharePredictor
from .isa import Branch, OpCosts


@dataclass
class ExecStats:
    """Per-run instruction mix, for Table 1's branch columns."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    mispredicts: int = 0

    @property
    def branch_fraction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.branches / self.instructions

    @property
    def mispredict_rate(self) -> float:
        if self.branches == 0:
            return 0.0
        return self.mispredicts / self.branches


class CoreExecutor:
    """Branch predictors, pcs and instruction counters of one simulated
    machine; :meth:`Scheduler.run
    <repro.runtime.scheduler.Scheduler.run>` executes the ops."""

    def __init__(self, system, costs: Optional[OpCosts] = None,
                 predictor_factory: Optional[Callable[[], BranchPredictor]] = None
                 ) -> None:
        self.system = system
        self.costs = costs or system.config.op_costs
        self._predictor_factory = predictor_factory or GsharePredictor
        self._predictors: Dict[int, BranchPredictor] = {}
        self._pc: Dict[int, int] = defaultdict(int)
        self.stats = ExecStats()

    def predictor(self, tid: int) -> BranchPredictor:
        if tid not in self._predictors:
            self._predictors[tid] = self._predictor_factory()
        return self._predictors[tid]

    def _execute_branch(self, tid: int, op: Branch) -> int:  # hot-path
        predictor = self.predictor(tid)
        count = op.count
        stats = self.stats
        stats.branches += count
        stats.instructions += (count - 1) + op.work_cycles
        costs = self.costs
        latency = op.work_cycles + count * costs.branch
        # Fused predictor loops: when the op carries no wrong-path loads a
        # mispredict has no side effects, so predict() can be unrolled
        # inline with the table/history/stat updates batched.  The
        # per-branch state evolution (and therefore the mispredict stream)
        # is bit-identical to calling predict() per branch; ops *with*
        # wrong-path loads keep the exact original call sequence.
        if not op.wrong_path_loads:
            pcls = predictor.__class__
            if pcls is GsharePredictor:
                table = predictor._table
                history = predictor._history
                hmask = predictor._history_mask
                tmask = (1 << predictor.table_bits) - 1
                taken = op.taken
                tbit = 1 if taken else 0
                base_pc = self._pc[tid]
                mispredicts = 0
                penalty = costs.branch_mispredict_penalty
                for n in range(count):
                    index = (((base_pc + 4 * n) >> 2) ^ history) & tmask
                    counter = table[index]
                    if (counter >= 2) != taken:
                        mispredicts += 1
                        latency += penalty
                    if taken:
                        if counter < 3:
                            table[index] = counter + 1
                    elif counter > 0:
                        table[index] = counter - 1
                    history = ((history << 1) | tbit) & hmask
                predictor._history = history
                pstats = predictor.stats
                pstats.predictions += count
                pstats.mispredictions += mispredicts
                stats.mispredicts += mispredicts
                return latency
            if pcls is CalibratedPredictor:
                state = predictor._state
                rate = predictor.rate
                mispredicts = 0
                penalty = costs.branch_mispredict_penalty
                for _ in range(count):
                    state = (state * 6364136223846793005
                             + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
                    if (state >> 11) / 9007199254740992.0 < rate:
                        mispredicts += 1
                        latency += penalty
                predictor._state = state
                pstats = predictor.stats
                pstats.predictions += count
                pstats.mispredictions += mispredicts
                stats.mispredicts += mispredicts
                return latency
        for n in range(count):
            pc = self._pc[tid] + 4 * n
            if not predictor.predict(pc, op.taken):
                continue
            stats.mispredicts += 1
            latency += costs.branch_mispredict_penalty
            # Wrong-path loads execute before the squash; their cache
            # effects are real but their latency hides under the redirect
            # penalty.
            for addr in op.wrong_path_loads:
                self.system.wrong_path_load(tid, addr)
        return latency
