"""Core execution model: per-thread branch prediction and the instruction mix.

:meth:`Scheduler.run <repro.runtime.scheduler.Scheduler.run>` gives every
op of the instruction IR (:mod:`repro.cpu.isa`) its meaning; the
:class:`CoreExecutor` holds the per-core state that loop charges: the
branch predictors, the thread handles whose op counts each thread's pc
and the :class:`ExecStats` instruction mix are derived from, and the op
costs.  The timing model is deliberately simple — a fixed
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

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .branch import BranchPredictor, CalibratedPredictor, GsharePredictor
from .isa import Branch


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
    """Branch predictors and threads of one simulated machine;
    :meth:`Scheduler.run
    <repro.runtime.scheduler.Scheduler.run>` executes the ops."""

    def __init__(self, system,
                 predictor_factory: Optional[Callable[[], BranchPredictor]] = None
                 ) -> None:
        self.system = system
        self.costs = system.config.op_costs
        self._predictor_factory = predictor_factory or GsharePredictor
        self._predictors: Dict[int, BranchPredictor] = {}
        #: The threads it runs by tid (``Scheduler.add_thread`` registers
        #: each handle), whose op counts the pc and the mix derive from.
        self.threads: Dict[int, Any] = {}
        #: What :meth:`_execute_branch` counts itself: branches,
        #: mispredicts and a ``Branch`` op's instructions past its first.
        self._branch_mix = ExecStats()

    def pc(self, tid: int) -> int:
        """Thread ``tid``'s pc: one 4-byte slot per core op it executed."""
        return 4 * self.threads[tid].core_ops

    @property
    def stats(self) -> ExecStats:
        """The instruction mix so far, derived from the op counts."""
        mix, threads = self._branch_mix, self.threads.values()
        return ExecStats(
            sum(t.core_ops + t.work_extra for t in threads) + mix.instructions,
            sum(t.loads for t in threads), sum(t.stores for t in threads),
            mix.branches, mix.mispredicts)

    def _execute_branch(self, tid: int, op: Branch) -> int:  # hot-path
        predictor = self._predictors.get(tid)
        if predictor is None:
            predictor = self._predictors[tid] = self._predictor_factory()
        count = op.count
        stats = self._branch_mix
        stats.branches += count
        stats.instructions += (count - 1) + op.work_cycles
        costs = self.costs
        latency = op.work_cycles + count * costs.branch
        # Fused calibrated paths.  The calibrated predictor ignores the
        # pc, so no calibrated op computes one: a lone branch is one
        # predict() call, and a burst without wrong-path loads predicts in
        # bulk.  Every other op predicts branch by branch below.
        if predictor.__class__ is CalibratedPredictor:
            if count == 1:
                if predictor.predict(0, op.taken):
                    stats.mispredicts += 1
                    latency += costs.branch_mispredict_penalty
                    for addr in op.wrong_path_loads:
                        self.system.wrong_path_load(tid, addr)
                return latency
            if not op.wrong_path_loads:
                mispredicts = predictor.predict_many(count)
                stats.mispredicts += mispredicts
                return latency + mispredicts * costs.branch_mispredict_penalty
            base_pc = 0
        else:
            base_pc = self.pc(tid)
        for n in range(count):
            if not predictor.predict(base_pc + 4 * n, op.taken):
                continue
            stats.mispredicts += 1
            latency += costs.branch_mispredict_penalty
            # Wrong-path loads execute before the squash; their cache
            # effects are real but their latency hides under the redirect
            # penalty.
            for addr in op.wrong_path_loads:
                self.system.wrong_path_load(tid, addr)
        return latency
