"""130.li (SPEC CPU95): xlisp interpreter.

Hot loop: evaluate one top-level expression per iteration — walk the cons
cell graph (irregular pointer chasing), allocate fresh cells as evaluation
builds results, and mark reachable cells GC-style.  li runs the *largest*
transactions of the suite (Table 1: 181.8M speculative accesses per TX)
with heavy branching (20.5%, 3.65% mispredicted), and avoids 22.5 false
aborts per transaction: mispredicted evaluator branches chase stale cons
pointers into heap regions that earlier expressions are still mutating.

Pipeline split: stage 1 walks the expression list; stage 2 evaluates.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

from ..cpu.isa import Load, Store, Work
from .base import Fragment
from .common import LINE, Lcg, Region, branch_op
from .pipeline import PipelinedBenchmark

_WORK2 = Work(2)


class LiWorkload(PipelinedBenchmark):
    """Cons-graph evaluation model of li's hot loop."""

    name = "130.li"
    hot_loop_fraction = 1.0
    mispredict_rate = 0.0365

    branch_pct = 0.205
    # Calibrated DSWP stage split (see EXPERIMENTS.md):
    stage1_work = 2208
    epilogue_work = 14900
    # Model geometry: cons cells walked per expression, heap size in lines.
    eval_steps = 850
    heap_lines = 224

    def __init__(self, iterations: int) -> None:
        super().__init__(iterations)
        # Shared cons heap: read-mostly graph built at setup.
        self.heap = Region(0x400_0000, self.heap_lines * LINE)
        # Per-iteration allocation frontier (fresh cells -> big write set).
        self.frontiers = Region(0x500_0000, iterations * 64 * LINE)

    @cached_property
    def _cdrs(self) -> List[int]:
        """Index of the cell each heap cell's cdr points to."""
        rng = Lcg(0x11E4)
        cells = self.heap.size // LINE
        return [rng.next(cells) for _ in range(cells)]

    def setup_domain(self, memory) -> None:
        for c, cdr in enumerate(self._cdrs):
            # car = value, cdr = pointer to another cell.
            memory.init_lines(self.heap.line(c),
                              ((c * 17 + 5) & 0xFFFF, self.heap.line(cdr)))

    def _frontier(self, i: int) -> int:
        return self.frontiers.base + i * 64 * LINE

    def work_body(self, i: int, element: int) -> Fragment:
        rng = Lcg(0x11E400 + i)
        cells = self.heap.size // LINE
        cell = self.heap.line((element * 313) % cells)
        frontier = self._frontier(i)
        wrong = (self.result_slot(i - 1),) if i else ()
        allocated = 0
        checksum = element
        for step in range(self.eval_steps):
            car = yield Load(cell)
            cdr = yield Load(cell + 8)
            checksum = (checksum * 33 + car) & 0xFFFFFFFF
            # Evaluator dispatch: branchy, occasionally chasing a stale
            # pointer into the previous expression's freshly-written cells.
            burst_wrong = wrong if step % 4 == 0 else ()
            yield branch_op(rng, burst_wrong)
            yield branch_op(rng, burst_wrong)
            if (car + step) % 5 == 0:
                # Allocate a result cell on this expression's frontier.
                new_cell = frontier + (allocated % (64 * LINE // 16)) * 16
                yield Store(new_cell, checksum & 0xFFFF)
                yield Store(new_cell + 8, cell)
                allocated += 1
            yield _WORK2
            cell = cdr
        return (checksum + allocated) & 0xFFFFFFFF

    def golden(self, i: int) -> int:
        element = self.element_payload(i)
        cells = self.heap.size // LINE
        cdrs = self._cdrs
        idx = (element * 313) % cells
        allocated = 0
        checksum = element
        for step in range(self.eval_steps):
            car = (idx * 17 + 5) & 0xFFFF
            checksum = (checksum * 33 + car) & 0xFFFFFFFF
            if (car + step) % 5 == 0:
                allocated += 1
            idx = cdrs[idx]
        return (checksum + allocated) & 0xFFFFFFFF

    def smtx_shared_regions(self):
        return super().smtx_shared_regions() + [self.heap.span(),
                                                self.frontiers.span()]
