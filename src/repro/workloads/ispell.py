"""ispell (MiBench): spell-checking via dictionary hash lookups.

Hot loop: read the next word, hash it, probe the dictionary, record
whether it is spelled correctly.  Transactions are *tiny* (Table 1: 43,752
speculative accesses per TX — by far the smallest) and have almost no
intra-transaction locality, which is why ispell needs SLAs on 13% of its
speculative loads, the highest of any benchmark.

Pipeline split: stage 1 walks the word list; stage 2 hashes and probes.
"""

from __future__ import annotations

from ..cpu.isa import Load, Store, Work
from .base import Fragment
from .common import LINE, Lcg, Region, branch_op
from .pipeline import PipelinedBenchmark


class IspellWorkload(PipelinedBenchmark):
    """Dictionary-probe model of ispell's hot loop."""

    name = "ispell"
    hot_loop_fraction = 0.865
    mispredict_rate = 0.0282

    branch_pct = 0.166
    # Calibrated DSWP stage split (see EXPERIMENTS.md):
    stage1_work = 226
    epilogue_work = 2580
    # Model geometry: dictionary probes per word, dictionary lines.
    probes = 4
    dict_lines = 2048

    def __init__(self, iterations: int) -> None:
        super().__init__(iterations)
        self.dictionary = Region(0x300_0000, self.dict_lines * LINE)

    def setup_domain(self, memory) -> None:
        for i in range(self.dictionary.size // LINE):
            memory.init_lines(self.dictionary.line(i),
                              ((i * 2654435761) & 0xFFFF,) * 8)

    def _probe_sequence(self, i: int):
        rng = Lcg(0x15BE11 + i)
        return [rng.next(self.dictionary.size // LINE) for _ in range(self.probes)]

    def work_body(self, i: int, element: int) -> Fragment:
        rng = Lcg(0xB4A0C + i)
        wrong = (self.result_slot(i - 1),) if i else ()
        found = 0
        for bucket in self._probe_sequence(i):
            line = self.dictionary.line(bucket)
            entry = 0
            # Walk the bucket's chain words and compare characters: several
            # touches to the same line, so only the first needs an SLA.
            for word in range(6):
                entry = (entry + (yield Load(line + 8 * (word % 8)))) & 0xFFFFFFFF
            yield branch_op(rng, wrong)
            found = (found * 31 + entry + element) & 0xFFFFFFFF
            yield Work(6)
        # Scratch note in the word's own result line (re-used, low SLA cost).
        yield Store(self.result_slot(i) + 8, found & 0xFF)
        yield branch_op(rng)
        return found

    def golden(self, i: int) -> int:
        element = self.element_payload(i)
        found = 0
        for bucket in self._probe_sequence(i):
            entry = (6 * ((bucket * 2654435761) & 0xFFFF)) & 0xFFFFFFFF  # 6 equal words
            found = (found * 31 + entry + element) & 0xFFFFFFFF
        return found

    def smtx_shared_regions(self):
        return super().smtx_shared_regions() + [self.dictionary.span()]
