"""Base class for the PS-DSWP benchmark models.

Seven of the eight evaluated benchmarks are pipeline-parallelised
(Table 1): a sequential first stage walks an input structure (file blocks,
sentences, expressions, game positions...) while a parallelisable second
stage does the heavy domain work on each element.  This base class
implements that common skeleton — Figure 3's pattern — so each benchmark
model only supplies its domain behaviour:

* :meth:`setup_domain` — initialise the benchmark's data structures;
* :meth:`work_body` — stage 2's per-iteration ops (the ``work()`` call);
* :meth:`golden` — a pure-Python mirror of ``work_body``'s result, used to
  verify that speculative parallel execution preserved sequential
  semantics.

Stage 1 forwards the per-iteration element through the versioned
``produced`` slot (a single speculative store; one version per VID), and
every stage-2 instance writes its result into a private per-iteration
result word which the correctness check folds after the run.
"""

from __future__ import annotations

from typing import Any, Optional

from ..cpu.isa import Branch, Load, Store
from .base import Fragment, Workload
from .common import LINE, Region


class PipelinedBenchmark(Workload):
    """Skeleton for a PS-DSWP benchmark model.

    Address layout::

        produced slot     1 word   (stage-1 -> stage-2 forwarding, Fig. 3)
        chain region      1 line per iteration (input structure)
        results region    1 line per iteration (private outputs)
        domain regions    subclass-defined
    """

    paradigm = "PS-DSWP"
    #: Table 1 branch-misprediction rate, consumed by the calibrated
    #: executor factory (None = use the organic gshare predictor).
    mispredict_rate: Optional[float] = None
    #: Cycles of stage-1 bookkeeping per iteration (input handling, list
    #: management).  The paper does not publish its per-benchmark stage
    #: splits; this knob calibrates the split so each model reproduces the
    #: benchmark's published Figure 8 speedup (see EXPERIMENTS.md).
    stage1_work: int = 0
    #: Cycles of ordered epilogue work per iteration (in-order output
    #: emission) — serialises across stage-2 workers via the commit turn.
    epilogue_work: int = 0
    #: Branch density of the benchmark's code (Table 1's "% of Branch Insts
    #: Inside Hot Loop"); the calibration fillers emit this mix so the
    #: instruction-mix columns stay faithful.
    branch_pct: float = 0.12

    produced_slot = 0x2000
    chain_region = Region(0x100_0000, 0)       # sized in __init__
    results_region = Region(0x200_0000, 0)

    def __init__(self, iterations: int) -> None:
        self.iterations = iterations
        self.chain_region = Region(0x100_0000, iterations * LINE)
        self.results_region = Region(0x200_0000, iterations * LINE)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def setup_domain(self, memory) -> None:
        """Initialise domain data structures in backing memory (a line at
        a time, with ``memory.init_lines``)."""
        raise NotImplementedError

    def work_body(self, i: int, element: int) -> Fragment:
        """Stage 2's ops for iteration ``i``; returns the result value.

        ``element`` is the payload stage 1 forwarded (loaded from the
        ``produced`` slot by the caller).
        """
        raise NotImplementedError

    def golden(self, i: int) -> int:
        """Pure-Python mirror of :meth:`work_body`'s result."""
        raise NotImplementedError

    def element_payload(self, i: int) -> int:
        """The value stage 1 forwards for iteration ``i``."""
        return 1 + 3 * i

    # ------------------------------------------------------------------
    # Common structure
    # ------------------------------------------------------------------

    def chain_node(self, i: int) -> int:
        return self.chain_region.line(i)

    def result_slot(self, i: int) -> int:
        return self.results_region.line(i)

    def setup(self, system) -> None:
        memory = system.hierarchy.memory
        for i in range(self.iterations):
            nxt = self.chain_node(i + 1) if i + 1 < self.iterations else 0
            memory.init_lines(self.chain_node(i),
                              (nxt, self.element_payload(i)))
        self.setup_domain(memory)

    def initial_carry(self, system) -> int:
        return self.chain_node(0)

    def recover_carry(self, system, iteration: int) -> int:
        return self.chain_node(iteration)

    # ------------------------------------------------------------------
    # Stage fragments
    # ------------------------------------------------------------------

    def _filler(self, cycles: int) -> Fragment:
        """Bookkeeping code: straight-line compute at the benchmark's
        branch density (so calibration work keeps the Table 1 mix)."""
        branches = max(1, round(self.branch_pct * cycles))
        yield Branch(taken=True, count=branches,
                     work_cycles=max(0, cycles - branches))

    def stage1_iteration(self, i: int, carry: Any) -> Fragment:
        node = carry
        payload = yield Load(node + 8)
        if self.stage1_work:
            yield from self._filler(self.stage1_work)
        yield Store(self.produced_slot, payload)
        nxt = yield Load(node)
        yield Branch(taken=nxt != 0, wrong_path_loads=())
        return nxt

    def stage2_iteration(self, i: int) -> Fragment:
        element = yield Load(self.produced_slot)
        result = yield from self.work_body(i, element)
        yield Store(self.result_slot(i), result & 0xFFFFFFFF)

    def sequential_iteration(self, i: int, carry: Any) -> Fragment:
        node = carry
        payload = yield Load(node + 8)
        if self.stage1_work:
            yield from self._filler(self.stage1_work)
        result = yield from self.work_body(i, payload)
        yield Store(self.result_slot(i), result & 0xFFFFFFFF)
        nxt = yield Load(node)
        yield Branch(taken=nxt != 0, wrong_path_loads=())
        yield from self.stage2_epilogue(i)
        return nxt

    def stage2_epilogue(self, i: int) -> Fragment:
        """Ordered output emission: serialised across workers (see base)."""
        if self.epilogue_work:
            yield from self._filler(self.epilogue_work)

    # ------------------------------------------------------------------
    # SMTX hooks
    # ------------------------------------------------------------------

    def smtx_minimal_addresses(self) -> frozenset:
        return frozenset({self.produced_slot})

    def smtx_shared_regions(self):
        """Default: the forwarding slot plus every domain region a compiler
        could not prove private (subclasses extend)."""
        return [(self.produced_slot, self.produced_slot + 8),
                self.chain_region.span()]

    # ------------------------------------------------------------------
    # Correctness
    # ------------------------------------------------------------------

    def expected_result(self, system) -> int:
        total = 0
        for i in range(self.iterations):
            total = (total + (self.golden(i) & 0xFFFFFFFF)) & 0xFFFFFFFF
        return total

    def observed_result(self, system) -> int:
        total = 0
        for i in range(self.iterations):
            value = system.hierarchy.read_committed(self.result_slot(i))
            total = (total + value) & 0xFFFFFFFF
        return total
