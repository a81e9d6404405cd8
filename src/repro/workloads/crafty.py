"""186.crafty (SPEC CPU2000): chess move generation and evaluation.

Hot loop: for each game position, generate candidate moves and evaluate
the resulting boards.  Crafty is the branchiest behaviour in the suite by
misprediction rate (5.59% of its 13.1% branch mix) — data-dependent move
legality and alpha-beta cutoffs defeat the predictor — which is what makes
wrong-path loads (and hence SLAs, 4.92% of loads) prominent.

Pipeline split: stage 1 walks the position list; stage 2 searches.
"""

from __future__ import annotations

from ..cpu.isa import Load, Store, Work
from .base import Fragment
from .common import LINE, Lcg, Region, branch_op
from .pipeline import PipelinedBenchmark


class CraftyWorkload(PipelinedBenchmark):
    """Move-search model of crafty's hot loop."""

    name = "186.crafty"
    hot_loop_fraction = 0.995
    mispredict_rate = 0.0559

    branch_pct = 0.131
    # Calibrated DSWP stage split (see EXPERIMENTS.md):
    stage1_work = 843
    epilogue_work = 5900
    # Model geometry: moves per position, attack-table lines.
    moves = 24
    attack_lines = 512

    def __init__(self, iterations: int) -> None:
        super().__init__(iterations)
        # Precomputed attack/eval tables, probed data-dependently.
        self.attack_tables = Region(0x330_0000, self.attack_lines * LINE)
        # Per-iteration scratch: move list + board copy (small write set).
        self.scratch = Region(0x340_0000, iterations * 4 * LINE)

    def setup_domain(self, memory) -> None:
        for i in range(self.attack_tables.size // LINE):
            memory.init_lines(self.attack_tables.line(i),
                              ((i * 193 + 7) & 0x3FF,) * 3)

    def _scratch(self, i: int) -> int:
        return self.scratch.base + i * 4 * LINE

    def work_body(self, i: int, element: int) -> Fragment:
        rng = Lcg(0xC4AF7 + i)
        scratch = self._scratch(i)
        table_lines = self.attack_tables.size // LINE
        window = (element * 131) % (table_lines - 16)
        wrong = (self.result_slot(i - 1),) if i else ()
        best = 0
        for move in range(self.moves):
            # Generate: probe this position's hot window of the attack
            # tables (mask, mobility, piece value from each probed line).
            legal = 0
            for probe in range(3):
                line = self.attack_tables.line(window + (move * 5 + probe * 3) % 16)
                for word in range(3):
                    legal += yield Load(line + 8 * word)
            # Evaluate: branch storm; mispredicted cutoffs chase a stale
            # pointer into the previous position's (still-unwritten) result.
            yield branch_op(rng, wrong)
            yield branch_op(rng, wrong)
            yield branch_op(rng, wrong)
            yield Work(8)
            score = (legal * (move + 1) + element) & 0xFFFFFFFF
            yield Store(scratch + 8 * (move % 8), score)
            prev = yield Load(scratch + 8 * (move % 8))
            if score > best:
                best = score
            yield branch_op(rng)
            best = (best + (prev & 1)) & 0xFFFFFFFF
        return best

    def golden(self, i: int) -> int:
        element = self.element_payload(i)
        table_lines = self.attack_tables.size // LINE
        window = (element * 131) % (table_lines - 16)
        best = 0
        for move in range(self.moves):
            legal = 0
            for probe in range(3):
                idx = window + (move * 5 + probe * 3) % 16
                legal += 3 * ((idx * 193 + 7) & 0x3FF)
            score = (legal * (move + 1) + element) & 0xFFFFFFFF
            if score > best:
                best = score
            best = (best + (score & 1)) & 0xFFFFFFFF
        return best

    def smtx_shared_regions(self):
        return super().smtx_shared_regions() + [self.attack_tables.span(),
                                                self.scratch.span()]
