"""052.alvinn (SPEC CPU92/95): neural-network road-following training.

Hot loop: train the perceptron on one input pattern per iteration —
forward propagation reads the (hot, heavily re-read) weight matrices;
backpropagation accumulates into a *per-pattern* gradient slice.  The
iterations are independent, so alvinn is the one DOALL benchmark of the
suite (Table 1), with dense affine access patterns: only 1.28% of loads
need SLAs and it has the lowest misprediction rate (0.245%).

DOALL execution wraps each iteration in its own single-threaded
transaction (TLS); the same body also runs sequentially.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, List

from ..cpu.isa import Branch, Load, Store, Work
from .base import Fragment, Workload
from .common import LINE, Lcg, Region, branch_op


class AlvinnWorkload(Workload):
    """Backpropagation-epoch model of alvinn's hot loop."""

    name = "052.alvinn"
    paradigm = "DOALL"
    hot_loop_fraction = 0.855
    mispredict_rate = 0.00245

    # Model geometry: hidden units, words per input pattern.
    hidden_units = 12
    input_words = 24

    def __init__(self, iterations: int) -> None:
        self.iterations = iterations
        # Shared, read-only during the loop: inputs and current weights.
        self.patterns = Region(0x600_0000,
                               iterations * ((self.input_words * 8 + LINE - 1)
                                             // LINE + 1) * LINE)
        self.weights = Region(0x610_0000, 8 * LINE)
        # Private per-iteration gradient slice (the DOALL writes).
        self.gradients = Region(0x620_0000, iterations * 4 * LINE)
        self.results = Region(0x630_0000, iterations * LINE)
        # Epoch-level gradient accumulator (written only by the ordered
        # epilogue; never read inside the loop).
        self.accumulator = Region(0x640_0000, LINE)

    def setup(self, system) -> None:
        memory = system.hierarchy.memory
        memory.init_lines(self.patterns.base, self._pattern_words)
        memory.init_lines(self.weights.base, [
            (i * 13 + 3) & 0x7F for i in range(self.weights.size // 8)])

    @cached_property
    def _pattern_words(self) -> List[int]:
        """The input patterns' words, as set-up writes them."""
        rng = Lcg(0xA1B1)
        return [rng.next(128) for _ in range(self.patterns.size // 8)]

    def _pattern(self, i: int) -> int:
        stride = ((self.input_words * 8 + LINE - 1) // LINE + 1) * LINE
        return self.patterns.base + i * stride

    def _gradient(self, i: int) -> int:
        return self.gradients.base + i * 4 * LINE

    def _result(self, i: int) -> int:
        return self.results.base + i * LINE

    # ------------------------------------------------------------------

    def doall_iteration(self, i: int) -> Fragment:
        rng = Lcg(0xA1B100 + i)
        pattern, gradient = self._pattern(i), self._gradient(i)
        weight_words = self.weights.size // 8
        activation = 0
        # Forward pass: every hidden unit re-reads the whole input slice
        # and the hot weight lines (dense reuse -> very few SLAs).
        for h in range(self.hidden_units):
            for w in range(self.input_words):
                x = yield Load(pattern + 8 * w)
                wt = yield Load(self.weights.base + 8 * ((h * 7 + w) % weight_words))
                activation = (activation + x * wt) & 0xFFFFFFFF
            yield branch_op(rng)
            yield Work(4)
        # Backward pass: accumulate the private gradient slice.
        for h in range(self.hidden_units):
            slot = gradient + 8 * (h % (4 * LINE // 8))
            acc = yield Load(slot)
            yield Store(slot, (acc + activation + h) & 0xFFFFFFFF)
        yield Store(self._result(i), activation & 0xFFFFFFFF)

    def stage2_epilogue(self, i: int) -> Fragment:
        """Fold this pattern's gradient into the epoch accumulator, in order.

        Gradient accumulation is a reduction: it must fold in original
        pattern order to preserve sequential floating-point semantics, so
        the epilogue serialises across DOALL workers via the commit turn.
        The accumulator is written only here (forward passes read the
        *weights*, which stay frozen for the whole epoch — batch training),
        so ordered execution is conflict-free."""
        gradient = self._gradient(i)
        branches = round(0.115 * 1200)
        yield Branch(taken=True, count=branches, work_cycles=1200 - branches)
        for h in range(4):
            g = yield Load(gradient + 8 * h)
            acc_addr = self.accumulator.base + 8 * h
            acc = yield Load(acc_addr)
            yield Store(acc_addr, (acc + (g & 0xFFFF)) & 0xFFFFFFFF)

    def sequential_iteration(self, i: int, carry: Any) -> Fragment:
        yield from self.doall_iteration(i)
        yield from self.stage2_epilogue(i)
        return None

    # ------------------------------------------------------------------

    def golden(self, i: int) -> int:
        data = self._pattern_words
        stride_words = (((self.input_words * 8 + LINE - 1) // LINE + 1) * LINE) // 8
        base = i * stride_words
        weight_words = self.weights.size // 8
        activation = 0
        for h in range(self.hidden_units):
            for w in range(self.input_words):
                x = data[base + w]
                wt = (((h * 7 + w) % weight_words) * 13 + 3) & 0x7F
                activation = (activation + x * wt) & 0xFFFFFFFF
        return activation

    def expected_result(self, system) -> int:
        total = 0
        for i in range(self.iterations):
            total = (total + self.golden(i)) & 0xFFFFFFFF
        return total

    def observed_result(self, system) -> int:
        total = 0
        for i in range(self.iterations):
            value = system.hierarchy.read_committed(self._result(i))
            total = (total + value) & 0xFFFFFFFF
        return total

    # ------------------------------------------------------------------

    def smtx_minimal_addresses(self) -> frozenset:
        return frozenset()

    def smtx_shared_regions(self):
        return [self.weights.span(), self.gradients.span(),
                self.accumulator.span()]
