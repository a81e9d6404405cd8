"""The paper's motivating workload: linked-list traversal with a work body.

This is the Figure 1/Figure 3 loop::

    while (node):
        w = work(node)      # may modify order of list
        if (w > MAX): break # control-flow speculated away
        node = node->next

The DSWP partition puts the pointer chase (``node = node->next``) in
stage 1 and ``work(node)`` in stage 2, with the node pointer communicated
through the shared versioned location ``producedNode`` — a single
speculative store per iteration, one version per VID (section 3.2).

The reduction over the per-node results is privatised (each iteration
writes its own output slot; the checksum is folded after the loop), exactly
as the paper's manual parallelisations must do to keep the parallel stage
iteration-independent.

Node layout (one cache line per node)::

    +0   next pointer
    +8   input value
    +16  output slot (written by work())
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..cpu.isa import Branch, Load, Store, Work
from .base import Fragment, Workload

_NEXT = 0
_VALUE = 8
_OUT = 16


class LinkedListWorkload(Workload):
    """Traverse a linked list, running a work function at each node.

    Parameters
    ----------
    nodes:
        List length; also the iteration count of the hot loop.
    work_cycles:
        Pure compute per ``work()`` call.

    Nodes are laid out in a pseudo-random order so the pointer chase has
    no spatial locality (the "irregular pointer-chasing" case), and
    ``work()`` makes ``work_reads`` extra reads of a shared read-mostly
    table (grows the read set).
    """

    name = "linkedlist"
    paradigm = "PS-DSWP"
    work_reads = 8
    node_region = 0x10_0000
    table_region = 0x80_0000
    produced_node = 0x1000

    def __init__(self, nodes: int = 32, work_cycles: int = 120) -> None:
        self.iterations = nodes
        self.nodes = nodes
        self.work_cycles = work_cycles
        self._node_addrs: List[int] = []

    # ------------------------------------------------------------------

    def _layout(self) -> List[int]:
        order = list(range(self.nodes))
        # Deterministic shuffle (LCG) so runs are reproducible.
        state = 0x5EED
        for i in range(self.nodes - 1, 0, -1):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            j = state % (i + 1)
            order[i], order[j] = order[j], order[i]
        return [self.node_region + slot * 64 for slot in order]

    def setup(self, system) -> None:
        memory = system.hierarchy.memory
        self._node_addrs = self._layout()
        for i, addr in enumerate(self._node_addrs):
            nxt = self._node_addrs[i + 1] if i + 1 < self.nodes else 0
            memory.write_word(addr + _NEXT, nxt)
            memory.write_word(addr + _VALUE, 3 * i + 7)
        for i in range(self.work_reads * 4):
            memory.write_word(self.table_region + 8 * i, i * i)

    def initial_carry(self, system) -> int:
        return self._node_addrs[0]

    def recover_carry(self, system, iteration: int) -> int:
        return self._node_addrs[iteration]

    # ------------------------------------------------------------------

    def _wrong_path(self, i: int) -> Tuple[int, ...]:
        """Addresses a mispredicted branch would load.

        A stale register plausibly points at the *previous* node, whose
        output slot the (logically earlier) previous iteration still has to
        write — exactly the pattern that, without SLAs, marks the line and
        triggers a false abort (section 5.1).
        """
        if i == 0:
            return ()
        return (self._node_addrs[i - 1] + _OUT,)

    def _work(self, i: int, node: int, value: int) -> Fragment:
        """The ``work()`` body: table reads, compute, private output store."""
        acc = value
        for r in range(self.work_reads):
            table_word = self.table_region + 8 * ((value + r) % (self.work_reads * 4))
            acc += yield Load(table_word)
        yield Work(self.work_cycles)
        yield Branch(taken=(acc % 7 != 0), wrong_path_loads=self._wrong_path(i))
        yield Store(node + _OUT, acc)
        return acc

    def sequential_iteration(self, i: int, carry: Any) -> Fragment:
        node = carry
        value = yield Load(node + _VALUE)
        yield from self._work(i, node, value)
        nxt = yield Load(node + _NEXT)
        yield Branch(taken=nxt != 0, wrong_path_loads=())
        return nxt

    def stage1_iteration(self, i: int, carry: Any) -> Fragment:
        node = carry
        # producedNode = node: one speculative store; stage 2 finds this
        # transaction's version by VID (uncommitted value forwarding).
        yield Store(self.produced_node, node)
        nxt = yield Load(node + _NEXT)
        yield Branch(taken=nxt != 0, wrong_path_loads=())
        return nxt

    def stage2_iteration(self, i: int) -> Fragment:
        node = yield Load(self.produced_node)
        value = yield Load(node + _VALUE)
        yield from self._work(i, node, value)

    def doall_iteration(self, i: int) -> Fragment:
        # Direct indexing (no pointer chase): only used when this workload
        # is forced into DOALL for paradigm-comparison experiments.
        node = self._node_addrs[i]
        value = yield Load(node + _VALUE)
        yield from self._work(i, node, value)

    # ------------------------------------------------------------------
    # SMTX baseline hooks
    # ------------------------------------------------------------------

    def smtx_minimal_addresses(self) -> frozenset:
        """Expert-minimal validation set: only the forwarding slot."""
        return frozenset({self.produced_node})

    def smtx_shared_regions(self):
        """Shared data: nodes and the forwarding slot (table is read-only
        and provably private per iteration under modest analysis)."""
        return [
            (self.node_region, self.node_region + self.nodes * 64),
            (self.produced_node, self.produced_node + 8),
        ]

    # ------------------------------------------------------------------

    def expected_result(self, system) -> Optional[int]:
        """Golden checksum: sum of per-node work() results."""
        total = 0
        for i in range(self.nodes):
            value = 3 * i + 7
            acc = value
            for r in range(self.work_reads):
                idx = (value + r) % (self.work_reads * 4)
                acc += idx * idx
            total = (total + acc) & 0xFFFFFFFF
        return total

    def observed_result(self, system) -> int:
        """Committed checksum after a run (read non-speculatively)."""
        total = 0
        for addr in self._node_addrs:
            total = (total + system.hierarchy.read_committed(addr + _OUT)) \
                & 0xFFFFFFFF
        return total
