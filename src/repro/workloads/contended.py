"""Adversarial workloads for the contention-management subsystem.

The Table 1 benchmarks are *well-partitioned*: their parallel stages are
iteration-independent, so aborts are rare and the seed's fixed restart
loop sufficed.  The :mod:`repro.txctl` subsystem exists for the loops
that are not so polite; this module models the two canonical failure
modes it must survive:

* :class:`HighContentionListWorkload` — the Figure 3 linked-list loop
  with a *shared read-modify-write* added to every iteration's work body
  (a global counter, like a shared statistics word or allocator bump
  pointer).  Every pair of concurrent transactions conflicts on the hot
  line, so free-running speculation aborts continuously and only
  backoff/serialisation restores progress.
* :class:`CapacityHogWorkload` — each transaction writes hundreds of
  distinct lines.  On a small cache hierarchy the speculative write set
  cannot be contained below the LLC, so every speculative attempt —
  serialised or not — dies with a ``CAPACITY_OVERFLOW`` abort (a
  *deterministic*, non-transient cause).  The seed runtime livelocked
  here ("abort livelock: too many recoveries"); the txctl serial
  fallback completes the loop non-speculatively (VID-0 stores are plain
  ``M`` lines that write back to memory freely).
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.config import MachineConfig
from ..cpu.isa import Load, Store, Work
from .base import Fragment, Workload
from .linkedlist import LinkedListWorkload

_OUT = 16


class HighContentionListWorkload(LinkedListWorkload):
    """Linked-list traversal whose work body bumps a shared counter.

    The counter lives on one cache line touched (load + store) by every
    iteration, so any two transactions in flight conflict — the classic
    high-contention microbenchmark.  ``rmw_per_iteration`` repeats the
    read-modify-write to widen the conflict window.
    """

    name = "contended-list"

    counter_addr = 0x2000

    def __init__(self, nodes: int = 24, rmw_per_iteration: int = 1) -> None:
        super().__init__(nodes=nodes, work_cycles=60)
        self.rmw_per_iteration = rmw_per_iteration

    def setup(self, system) -> None:
        super().setup(system)
        system.hierarchy.memory.write_word(self.counter_addr, 0)

    def _work(self, i: int, node: int, value: int) -> Fragment:
        for _ in range(self.rmw_per_iteration):
            count = yield Load(self.counter_addr)
            yield Work(4)
            yield Store(self.counter_addr, count + 1)
        acc = yield from super()._work(i, node, value)
        return acc

    def counter_value(self, system) -> int:
        """The committed shared counter (``nodes * rmw`` when correct)."""
        return system.hierarchy.read_committed(self.counter_addr)

    def expected_counter(self) -> int:
        return self.nodes * self.rmw_per_iteration


class CapacityHogWorkload(Workload):
    """Transactions whose write sets overflow a small cache hierarchy.

    Iteration ``i`` streams stores over ``lines_per_iteration`` distinct
    lines of a private region, then records a checksum in its output
    slot.  Iterations are fully independent (DOALL-style) — the *only*
    obstacle to speculation is capacity, which makes this the acceptance
    workload for the serial fallback: no amount of retrying or
    serialising lets the write set fit.
    """

    name = "capacity-hog"
    paradigm = "PS-DSWP"
    work_cycles = 20
    region = 0x40_0000
    out_region = 0x20_0000
    produced_slot = 0x3000

    def __init__(self, iterations: int = 4,
                 lines_per_iteration: int = 400) -> None:
        self.iterations = iterations
        self.lines_per_iteration = lines_per_iteration

    @staticmethod
    def tiny_config(**overrides) -> MachineConfig:
        """A hierarchy small enough that one transaction overflows it."""
        params = dict(num_cores=4, l1_size=1024, l1_assoc=2,
                      l2_size=4096, l2_assoc=4)
        params.update(overrides)
        return MachineConfig(**params)

    # ------------------------------------------------------------------

    def setup(self, system) -> None:
        memory = system.hierarchy.memory
        for i in range(self.iterations):
            memory.write_word(self.out_region + i * 64, 0)

    def _body(self, i: int) -> Fragment:
        # Line j of iteration i gets (i * 131 + j * 17 + 1) mod 2**32.
        first = self.region + i * self.lines_per_iteration * 64
        value = i * 131 + 1
        checksum = 0
        for line in range(first, first + self.lines_per_iteration * 64, 64):
            yield Store(line, value & 0xFFFFFFFF)
            checksum += value
            value += 17
        yield Work(self.work_cycles)
        yield Store(self.out_region + i * 64, checksum & 0xFFFFFFFF)

    def sequential_iteration(self, i: int, carry: Any) -> Fragment:
        yield from self._body(i)
        return None

    def stage1_iteration(self, i: int, carry: Any) -> Fragment:
        yield Store(self.produced_slot, i)
        return None

    def stage2_iteration(self, i: int) -> Fragment:
        i = yield Load(self.produced_slot)
        yield from self._body(i)

    def doall_iteration(self, i: int) -> Fragment:
        yield from self._body(i)

    # ------------------------------------------------------------------

    def expected_result(self, system) -> Optional[int]:
        # Every sum is taken mod 2**32, so the per-line masks can wait.
        total = 0
        for i in range(self.iterations):
            first = i * 131 + 1
            total += sum(range(first, first + 17 * self.lines_per_iteration,
                               17))
        return total & 0xFFFFFFFF

    def observed_result(self, system) -> int:
        total = 0
        for i in range(self.iterations):
            total = (total +
                     system.hierarchy.read_committed(self.out_region + i * 64)) \
                & 0xFFFFFFFF
        return total


# ----------------------------------------------------------------------
# Registry factories (the ``scale`` parameterisations the sweep engine
# historically special-cased; golden timelines depend on these exact
# construction parameters)
# ----------------------------------------------------------------------

def contended_list_workload(scale: float,
                            **kwargs) -> HighContentionListWorkload:
    params: dict = dict(nodes=max(8, int(24 * scale)), rmw_per_iteration=2)
    params.update(kwargs)
    return HighContentionListWorkload(**params)


def capacity_hog_workload(scale: float,
                          **kwargs) -> CapacityHogWorkload:
    params: dict = dict(iterations=max(2, int(4 * scale)))
    params.update(kwargs)
    return CapacityHogWorkload(**params)
