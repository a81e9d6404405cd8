"""Speculative Load Acknowledgments (SLAs) — section 5.1.

With deep pipelines and branch prediction, loads execute before the branches
they depend on resolve.  A squashed wrong-path load must not mark a cache
line with its VID, or a later (logically earlier) store to that line will
trigger a *false* misspeculation.

Under the SLA scheme a branch-speculative load does **not** mark the line.
Only when the load retires (branch resolved correctly) is an SLA message —
carrying the loaded value, address and VID — sent to the cache system, which
re-verifies the value and applies the speculative marking.  An SLA is only
needed when the line is not already marked for that VID, which memory
locality makes rare (Table 1: 1.28%–13% of speculative loads).

This module tracks two things:

* how many SLAs the system sends (``slas_sent`` lives in the system stats;
  the *decision* is the hierarchy's, counted in :attr:`~repro.coherence.
  hierarchy.MemoryHierarchy.sla_loads`), and
* the *ghost marks* that wrong-path loads would have left if SLAs were
  disabled, so the evaluation can count how many false aborts the mechanism
  avoided (Table 1's "TX Aborts Avoided via SLA Per TX").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SlaTracker:
    """Ghost-mark bookkeeping for the SLA mechanism.

    ``enabled=False`` models the naive system: wrong-path loads really mark
    lines, and the false aborts they cause are real (the ablation benchmark
    measures this).
    """

    enabled: bool = True
    line_size: int = 64
    #: line address -> highest VID a wrong-path load *would have* marked.
    _ghosts: Dict[int, int] = field(default_factory=dict)

    def _line(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def record_wrong_path(self, addr: int, vid: int, would_mark: bool) -> None:
        """Log a squashed speculative load that SLAs kept from marking."""
        if not would_mark or vid <= 0:
            return
        line = self._line(addr)
        if self._ghosts.get(line, 0) < vid:
            self._ghosts[line] = vid

    def check_store(self, addr: int, vid: int) -> bool:
        """Would this store have aborted against a ghost mark?

        Called for every speculative store that did *not* misspeculate for
        real.  A ghost mark with a higher VID on the store's line means the
        naive system would have seen VID < highVID and aborted — an abort
        the SLA mechanism avoided.
        """
        line = self._line(addr)
        ghost_vid = self._ghosts.get(line)
        if ghost_vid is not None and vid < ghost_vid:
            del self._ghosts[line]
            return True
        return False

    def on_commit(self, vid: int) -> None:
        """Ghost marks from committed VIDs can no longer cause aborts."""
        dead = [line for line, g in self._ghosts.items() if g <= vid]
        for line in dead:
            del self._ghosts[line]

    def on_abort(self) -> None:
        """A real abort flushes all speculative state, ghosts included."""
        self._ghosts.clear()

    def pending_ghosts(self) -> int:
        return len(self._ghosts)
