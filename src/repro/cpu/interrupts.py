"""Interrupt and exception injection — section 5.2.

Long-running transactions must survive interrupts (context switches, timer
ticks) and exceptions (demand paging).  HMTX supports this by attaching VIDs
only to loads and stores whose PC falls inside the program's registered text
segment; handler code therefore performs *non-speculative* memory operations
that neither mark lines nor trigger misspeculation.

:class:`InterruptInjector` fires a handler every ``period`` cycles of a
core's execution.  The handler touches a configurable number of words in a
dedicated kernel region through the system's ``kernel_load``/``kernel_store``
interface (the PC-range mechanism) and charges its latency to the
interrupted thread — modelling preemption cost without perturbing
speculative state, which the test suite verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

KERNEL_REGION_BASE = 0x7F00_0000
"""Kernel data region; disjoint from every workload's address space."""


@dataclass
class InterruptInjector:
    """Periodic interrupt/exception model.

    Parameters
    ----------
    period:
        Cycles of per-core progress between interrupts; 0 disables.
    handler_accesses:
        Words the handler reads and writes per interrupt.
    handler_compute:
        Extra cycles of handler computation per interrupt.
    """

    period: int = 0
    handler_accesses: int = 8
    handler_compute: int = 200
    fired: int = field(default=0, init=False)
    _next_fire: Dict[int, int] = field(default_factory=dict, init=False)

    def maybe_interrupt(self, system, tid: int, core: int, clock: int) -> int:
        """Fire the handler if ``core`` crossed its next interrupt point.

        Returns the cycles the handler consumed (0 when no interrupt).
        ``system`` duck-types :class:`~repro.core.system.HMTXSystem`.
        """
        if self.period <= 0:
            return 0
        due = self._next_fire.setdefault(core, self.period)
        if clock < due:
            return 0
        self._next_fire[core] = clock + self.period
        self.fired += 1
        latency = self.handler_compute
        base = KERNEL_REGION_BASE + core * 4096
        # A handler access landing on live speculative state raises an
        # INTERRUPT abort (the system classifies and flushes it).
        for i in range(self.handler_accesses):
            addr = base + 8 * i
            latency += system.kernel_load(tid, addr)[1]
            latency += system.kernel_store(tid, addr, self.fired)[1]
        return latency
