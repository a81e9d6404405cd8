"""197.parser (SPEC CPU2000): link-grammar natural-language parsing.

Hot loop: parse one sentence per iteration — look each word up in the
dictionary, then search for a consistent linkage, building parse nodes as
it goes.  Parser is branch-heavy (19.2%) but predictable (1.05%
mispredicts); its claim to fame in Table 1 is avoiding the most false
aborts per transaction (24.6): mispredicted linkage branches issue loads
against parse structures that logically-earlier sentences are still
writing.

Pipeline split: stage 1 walks the sentence list; stage 2 parses.
"""

from __future__ import annotations

from ..cpu.isa import Load, Store, Work
from .base import Fragment
from .common import LINE, Lcg, Region, branch_op
from .pipeline import PipelinedBenchmark


class ParserWorkload(PipelinedBenchmark):
    """Link-grammar model of parser's hot loop."""

    name = "197.parser"
    hot_loop_fraction = 1.0
    mispredict_rate = 0.0105

    branch_pct = 0.192
    # Calibrated DSWP stage split (see EXPERIMENTS.md):
    stage1_work = 644
    epilogue_work = 4100
    # Model geometry: words per sentence, dictionary lines, linkage passes.
    words_per_sentence = 36
    dict_lines = 1024
    linkage_passes = 3

    def __init__(self, iterations: int) -> None:
        super().__init__(iterations)
        self.dictionary = Region(0x380_0000, self.dict_lines * LINE)
        # Per-sentence parse-node arena (written while building linkages).
        self.arenas = Region(0x390_0000, iterations * 16 * LINE)

    def setup_domain(self, memory) -> None:
        for i in range(self.dictionary.size // LINE):
            memory.init_lines(self.dictionary.line(i),
                              ((i * 769 + 31) & 0xFFFF,))

    def _arena(self, i: int) -> int:
        return self.arenas.base + i * 16 * LINE

    def work_body(self, i: int, element: int) -> Fragment:
        rng = Lcg(0x9A25E + i)
        arena = self._arena(i)
        dict_lines = self.dictionary.size // LINE
        wrong = (self.result_slot(i - 1),) if i else ()
        nodes = 0
        checksum = element
        for p in range(self.linkage_passes):
            for w in range(self.words_per_sentence):
                # A sentence re-uses a small vocabulary: its words map
                # to ~6 hot dictionary lines, re-probed on every pass.
                word_id = (element * 31 + (w % 6) * 7) & 0xFFFF
                entry = yield Load(self.dictionary.line(word_id % dict_lines))
                entry2 = yield Load(self.dictionary.line((word_id // 7) % dict_lines))
                # Linkage decision: branches; mispredicted ones chase a
                # stale pointer into the previous sentence's arena.
                yield branch_op(rng, wrong)
                yield branch_op(rng, wrong)
                if (entry + entry2 + w) % 3 == 0:
                    yield Store(arena + 8 * (nodes % 128), word_id)
                    nodes += 1
                checksum = (checksum + entry * 2 + entry2) & 0xFFFFFFFF
                yield Work(2)
            yield branch_op(rng)
        return (checksum + nodes) & 0xFFFFFFFF

    def golden(self, i: int) -> int:
        element = self.element_payload(i)
        dict_lines = self.dictionary.size // LINE
        nodes = 0
        checksum = element
        for p in range(self.linkage_passes):
            for w in range(self.words_per_sentence):
                word_id = (element * 31 + (w % 6) * 7) & 0xFFFF
                entry = ((word_id % dict_lines) * 769 + 31) & 0xFFFF
                entry2 = (((word_id // 7) % dict_lines) * 769 + 31) & 0xFFFF
                if (entry + entry2 + w) % 3 == 0:
                    nodes += 1
                checksum = (checksum + entry * 2 + entry2) & 0xFFFFFFFF
        return (checksum + nodes) & 0xFFFFFFFF

    def smtx_shared_regions(self):
        return super().smtx_shared_regions() + [self.dictionary.span(),
                                                self.arenas.span()]
