"""An ideal/oracle TM backend: the upper bound every real scheme chases.

The oracle machine has perfect advance knowledge of conflicts, so it pays
*none* of the costs that separate HMTX from SMTX: no per-access logging or
validation (SMTX's tax), no VID-window stalls or capacity aborts (HMTX's).
Speculative values still flow through per-VID buffers with uncommitted
value forwarding, commits still happen atomically in VID order, and cache
*timing* is still real (a plain non-speculative hierarchy) — only the TM
bookkeeping is free and aborts never strike.

Running a paradigm on ``get_backend("oracle")`` therefore yields the
paradigm's intrinsic speedup curve: the gap between an oracle run and an
HMTX/SMTX run of the same workload is exactly the cost of that scheme's
conflict-detection machinery.  (Compare the "HyTM upper bound" harnesses
of Alistarh et al. and Brown & Ravi.)

The oracle is therefore SMTX's machine with every TM cost at zero and no
validation: :class:`OracleTMSystem` subclasses
:class:`~repro.smtx.system.SMTXSystem` and replaces only its memory
operations, its commit hook and its instruction costs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..coherence.hierarchy import AccessResult
from ..core.config import MachineConfig
from ..core.mtx import MTXMachine
from ..smtx.system import SMTXSystem


class OracleTMSystem(SMTXSystem):
    """A multicore with a zero-overhead, never-aborting TM."""

    _label = "oracle"

    def __init__(self, config: Optional[MachineConfig] = None,
                 sla_enabled: bool = True) -> None:
        # SLAs exist to suppress false aborts; an oracle has none either way.
        del sla_enabled
        # Perfect hardware tracks unbounded VIDs; the 4.6 reset protocol
        # never triggers.
        super().__init__(config)

    # MTX instructions cost what HMTX's do; commits never validate.
    _mtx_latency = MTXMachine._mtx_latency

    def _commit_versions(self, vid: int) -> int:
        self.memory.commit(vid)
        return self.config.op_costs.mtx_instruction

    # ------------------------------------------------------------------
    # Memory operations: no logging, no instrumentation
    # ------------------------------------------------------------------

    def load(self, tid: int, addr: int, now: int = 0) -> AccessResult:
        ctx = self.contexts[tid]
        value, _ = self._read_with_source(ctx.vid, addr)
        latency = self.timing.load(ctx.core, addr, 0, now=now).latency
        if ctx.vid > 0:
            self.stats.record_load(ctx.vid, addr, sla_sent=False)
        return AccessResult(value, latency, True, "oracle")

    def store(self, tid: int, addr: int, value: int,
              now: int = 0) -> AccessResult:
        ctx = self.contexts[tid]
        latency = self.timing.store(ctx.core, addr, 0, 0, now=now).latency
        self.memory.write(ctx.vid, addr, value)
        if ctx.vid > 0:
            self.stats.record_store(ctx.vid, addr)
        return AccessResult(value, latency, True, "oracle")

    def wrong_path_load(self, tid: int, addr: int) -> Tuple[int, int]:
        """Perfect hardware never lets a squashed load mark anything."""
        self.stats.wrong_path_loads += 1
        return super().wrong_path_load(tid, addr)
