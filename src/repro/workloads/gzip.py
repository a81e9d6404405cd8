"""164.gzip (SPEC CPU2000): LZ77 compression over input blocks.

Hot loop: for each input block, slide a window over the data, probe the
hash chain for previous occurrences, and emit literals/matches.  The hash
table is the classic shared, irregularly-updated structure; block data is
streamed (modest locality — 7.08% of loads need SLAs).

Pipeline split: stage 1 produces the next block; stage 2 deflates it.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

from ..cpu.isa import Load, Store, Work
from .base import Fragment
from .common import LINE, Lcg, Region, branch_op
from .pipeline import PipelinedBenchmark


class GzipWorkload(PipelinedBenchmark):
    """Deflate model of gzip's hot loop."""

    name = "164.gzip"
    hot_loop_fraction = 0.984
    mispredict_rate = 0.0268

    branch_pct = 0.146
    # Calibrated DSWP stage split (see EXPERIMENTS.md):
    stage1_work = 818
    epilogue_work = 7300
    # Model geometry: words per input block, hash-table lines per block.
    block_words = 40
    hash_lines = 8

    def __init__(self, iterations: int) -> None:
        super().__init__(iterations)
        # Input blocks: one private region per iteration (streamed reads).
        self.blocks = Region(0x350_0000, iterations * ((self.block_words * 8 + LINE - 1)
                                                       // LINE + 1) * LINE)
        # Per-iteration private hash table slice and output buffer.  (The
        # real deflate hash table is shared; the manual parallelisation
        # privatises it per block, as the paper's transformations must to
        # keep the parallel stage independent.)
        self.hash_tables = Region(0x360_0000, iterations * self.hash_lines * LINE)
        self.output = Region(0x370_0000, iterations * 8 * LINE)

    @cached_property
    def _block_words(self) -> List[int]:
        """The input blocks' words, as set-up writes them."""
        rng = Lcg(0x621F)
        return [rng.next(251) for _ in range(self.blocks.size // 8)]

    def setup_domain(self, memory) -> None:
        memory.init_lines(self.blocks.base, self._block_words)

    def _block(self, i: int) -> int:
        stride = ((self.block_words * 8 + LINE - 1) // LINE + 1) * LINE
        return self.blocks.base + i * stride

    def _hash_table(self, i: int) -> int:
        return self.hash_tables.base + i * self.hash_lines * LINE

    def _output(self, i: int) -> int:
        return self.output.base + i * 8 * LINE

    def work_body(self, i: int, element: int) -> Fragment:
        rng = Lcg(0x621F00 + i)
        block, table, out = self._block(i), self._hash_table(i), self._output(i)
        wrong = (self.result_slot(i - 1),) if i else ()
        crc = element
        emitted = 0
        for w in range(self.block_words):
            byte = yield Load(block + 8 * w)
            bucket = (byte * 2654435761 >> 8) % (self.hash_lines * 8)
            prev = yield Load(table + 8 * (bucket % (self.hash_lines * 8)))
            yield Store(table + 8 * (bucket % (self.hash_lines * 8)), w)
            match = prev != 0 and (byte & 3) == 0
            yield branch_op(rng, wrong)
            if match:
                crc = (crc + prev * 3) & 0xFFFFFFFF
            else:
                crc = (crc + byte) & 0xFFFFFFFF
                yield Store(out + 8 * (emitted % 64), byte)
                emitted += 1
            yield Work(3)
        return crc

    def golden(self, i: int) -> int:
        element = self.element_payload(i)
        data = self._block_words
        stride_words = (((self.block_words * 8 + LINE - 1) // LINE + 1) * LINE) // 8
        base_index = i * stride_words
        table = {}
        crc = element
        for w in range(self.block_words):
            byte = data[base_index + w]
            bucket = (byte * 2654435761 >> 8) % (self.hash_lines * 8)
            prev = table.get(bucket, 0)
            table[bucket] = w
            if prev != 0 and (byte & 3) == 0:
                crc = (crc + prev * 3) & 0xFFFFFFFF
            else:
                crc = (crc + byte) & 0xFFFFFFFF
        return crc

    def smtx_shared_regions(self):
        return super().smtx_shared_regions() + [self.blocks.span(),
                                                self.hash_tables.span()]
