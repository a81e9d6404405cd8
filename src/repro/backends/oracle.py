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
validation: :class:`OracleTMSystem` is a
:class:`~repro.smtx.system.SMTXSystem` with zero :class:`SmtxCosts` and a
validation predicate that selects nothing, and replaces only its commit
hook and its instruction costs.
"""

from __future__ import annotations

from typing import Optional

from ..coherence.hierarchy import Access
from ..core.config import MachineConfig
from ..core.mtx import MTXMachine
from ..smtx.costs import SmtxCosts
from ..smtx.system import SMTXSystem


class OracleTMSystem(SMTXSystem):
    """A multicore with a zero-overhead, never-aborting TM."""

    _label = "oracle"

    def __init__(self, config: Optional[MachineConfig] = None,
                 sla_enabled: bool = True) -> None:
        # SLAs exist to suppress false aborts; an oracle has none either way.
        del sla_enabled
        # Perfect hardware tracks unbounded VIDs; the 4.6 reset protocol
        # never triggers.  Accesses are free and never logged.
        super().__init__(config, costs=SmtxCosts(0, 0, 0, 0, 0, 0),
                         validation_predicate=lambda addr, store: False)

    # MTX instructions cost what HMTX's do; commits never validate.
    _mtx_latency = MTXMachine._mtx_latency

    def _commit_versions(self, vid: int) -> int:
        self.memory.commit(vid)
        return self.config.op_costs.mtx_instruction

    def wrong_path_load(self, tid: int, addr: int) -> Access:
        """Perfect hardware never lets a squashed load mark anything."""
        self.stats.wrong_path_loads += 1
        return super().wrong_path_load(tid, addr)
