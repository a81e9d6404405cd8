"""256.bzip2 (SPEC CPU2000): block-sorting compression.

Hot loop: for each input block, run the Burrows-Wheeler transform —
read the whole block, build rank/rotation arrays, write the transformed
block.  bzip2's transactions have by far the largest read/write sets of
the suite (Figure 9: 16,222 kB average combined set; scaled here), and the
paper notes it is one of only two benchmarks whose *non-speculative*
backup (``S-O``, modVID 0) versions overflowed the caches (section 6.3).

Pipeline split: stage 1 produces block descriptors; stage 2 transforms.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

from ..cpu.isa import Load, Store, Work
from .base import Fragment
from .common import LINE, Lcg, Region, branch_op
from .pipeline import PipelinedBenchmark


class Bzip2Workload(PipelinedBenchmark):
    """Burrows-Wheeler model of bzip2's hot loop."""

    name = "256.bzip2"
    hot_loop_fraction = 0.985
    mispredict_rate = 0.0133

    branch_pct = 0.126
    # Calibrated DSWP stage split (see EXPERIMENTS.md):
    stage1_work = 4465
    epilogue_work = 30300

    def __init__(self, iterations: int, block_lines: int = 44) -> None:
        super().__init__(iterations)
        self.block_lines = block_lines
        stride = block_lines * LINE
        self.input_blocks = Region(0x3A0_0000, iterations * stride)
        self.output_blocks = Region(0x3C0_0000, iterations * stride)
        self.rank_arrays = Region(0x3E0_0000, iterations * (block_lines // 4) * LINE)

    @cached_property
    def _input_words(self) -> List[int]:
        """The input blocks' words, as set-up writes them."""
        rng = Lcg(0xB21B2)
        return [rng.next(255) for _ in range(self.input_blocks.size // 8)]

    def setup_domain(self, memory) -> None:
        memory.init_lines(self.input_blocks.base, self._input_words)

    def _in(self, i: int) -> int:
        return self.input_blocks.base + i * self.block_lines * LINE

    def _out(self, i: int) -> int:
        return self.output_blocks.base + i * self.block_lines * LINE

    def _rank(self, i: int) -> int:
        return self.rank_arrays.base + i * (self.block_lines // 4) * LINE

    def work_body(self, i: int, element: int) -> Fragment:
        rng = Lcg(0xB21B200 + i)
        src, dst, rank = self._in(i), self._out(i), self._rank(i)
        words = self.block_lines * (LINE // 8)
        wrong = (self.result_slot(i - 1),) if i else ()
        checksum = element
        # Pass 1: scan the block, accumulate bucket counts (rank array).
        for w in range(words):
            byte = yield Load(src + 8 * w)
            bucket = byte % (self.block_lines * 2)
            count = yield Load(rank + 8 * (bucket % (words // 8)))
            yield Store(rank + 8 * (bucket % (words // 8)), count + 1)
            checksum = (checksum + byte) & 0xFFFFFFFF
            if w % 16 == 0:
                yield branch_op(rng, wrong)
                yield Work(2)
        # Pass 2: write the "rotated" block (big sequential write set).
        for w in range(words):
            byte = yield Load(src + 8 * ((w * 7 + element) % words))
            yield Store(dst + 8 * w, byte)
            if w % 32 == 0:
                yield branch_op(rng)
        yield Work(40)
        return checksum

    def golden(self, i: int) -> int:
        element = self.element_payload(i)
        data = self._input_words
        words = self.block_lines * (LINE // 8)
        base = i * words
        checksum = element
        for w in range(words):
            checksum = (checksum + data[base + w]) & 0xFFFFFFFF
        return checksum

    def smtx_shared_regions(self):
        return super().smtx_shared_regions() + [self.input_blocks.span(),
                                                self.output_blocks.span(),
                                                self.rank_arrays.span()]
