"""456.hmmer (SPEC CPU2006): profile-HMM sequence search (Viterbi DP).

Hot loop: for each candidate sequence, run the Viterbi dynamic program
against the profile HMM.  The DP sweeps small, hot rows repeatedly, so
intra-transaction locality is excellent — hmmer needs SLAs on only 1.40%
of speculative loads and avoids almost no aborts (0.187 per TX), with the
lowest branch density of the suite (4.83%).

Pipeline split: stage 1 fetches the next sequence; stage 2 runs the DP.
"""

from __future__ import annotations

from ..cpu.isa import Load, Store, Work
from .base import Fragment
from .common import LINE, Lcg, Region, branch_op
from .pipeline import PipelinedBenchmark


class HmmerWorkload(PipelinedBenchmark):
    """Viterbi-sweep model of hmmer's hot loop."""

    name = "456.hmmer"
    hot_loop_fraction = 1.0
    mispredict_rate = 0.0103

    branch_pct = 0.0483
    # Calibrated DSWP stage split (see EXPERIMENTS.md):
    stage1_work = 247
    epilogue_work = 1576
    # Model geometry: profile states swept per residue, residues per sequence.
    model_states = 24
    sequence_len = 4

    def __init__(self, iterations: int) -> None:
        super().__init__(iterations)
        # Profile coefficients: a few hot lines, re-read constantly.
        self.model = Region(0x310_0000, 4 * LINE)
        # One DP row per iteration (private), updated in place many times.
        self.dp_rows = Region(0x320_0000, iterations * 2 * LINE)

    def setup_domain(self, memory) -> None:
        memory.init_lines(self.model.base, [
            (i * 37 + 11) & 0xFF for i in range(self.model.size // 8)])

    def _dp_row(self, i: int) -> int:
        return self.dp_rows.base + i * 2 * LINE

    def work_body(self, i: int, element: int) -> Fragment:
        rng = Lcg(0x6A33E2 + i)
        row = self._dp_row(i)
        score = element
        for pos in range(self.sequence_len):
            for state in range(self.model_states):
                coeff = yield Load(self.model.base + 8 * ((state * 3 + pos) %
                                                          (self.model.size // 8)))
                cell = row + 8 * (state % 16)
                prev = yield Load(cell)
                score = (prev + coeff * (element + pos)) & 0xFFFFFFFF
                yield Store(cell, score)
            yield Work(10)
            yield branch_op(rng)
        return score

    def golden(self, i: int) -> int:
        element = self.element_payload(i)
        cells = [0] * 16
        score = element
        for pos in range(self.sequence_len):
            for state in range(self.model_states):
                coeff = (((state * 3 + pos) % (self.model.size // 8)) * 37 + 11) & 0xFF
                idx = state % 16
                score = (cells[idx] + coeff * (element + pos)) & 0xFFFFFFFF
                cells[idx] = score
        return score

    def smtx_shared_regions(self):
        return super().smtx_shared_regions() + [self.model.span()]
