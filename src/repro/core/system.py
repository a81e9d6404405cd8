"""The HMTX system: the paper's programming interface over the hierarchy.

:class:`HMTXSystem` keeps versions in the versioned cache hierarchy of
:mod:`repro.coherence`; the four MTX instructions of section 3.1 and their
software contract (in-order commit, abort/rewind, output buffering) come
from :class:`~repro.core.mtx.MTXMachine`.  On top of that it owns the
machinery between the ISA and the protocol:

* speculative loads and stores that carry the issuing thread's VID,
* the m-bit VID space and its reset protocol (4.6),
* SLA bookkeeping for branch-speculative loads (5.1),
* read/write-set and abort statistics (Table 1, Figure 9).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..coherence.hierarchy import AccessResult
from ..coherence.protocol import AccessKind
from ..errors import MisspeculationError, TransactionUsageError
from ..txctl.causes import AbortCause, classify
from .config import MachineConfig
from .mtx import MTXMachine
from .sla import SlaTracker
from .stats import OpenTransaction


class HMTXSystem(MTXMachine):
    """A multicore machine with HMTX extensions.

    Parameters
    ----------
    config:
        Machine configuration (defaults to the paper's Table 2).
    sla_enabled:
        When False, wrong-path loads genuinely mark cache lines (the naive
        pre-SLA design of section 5.1) — used by the SLA ablation.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 sla_enabled: bool = True) -> None:
        config = config or MachineConfig()
        super().__init__(config, vid_bits=config.vid_bits)
        self.hierarchy = config.build_hierarchy()
        self.sla = SlaTracker(enabled=sla_enabled,
                              line_size=config.line_size)
        #: Lines marked by wrong-path loads in no-SLA mode (line address ->
        #: highest marking VID), to attribute the resulting aborts as
        #: *false* (SLA-preventable).  Entries are pruned once their
        #: marking VID commits: a committed mark is architecturally real
        #: and can no longer cause a false abort, so leaving it behind
        #: would misattribute a genuine later conflict on the same line.
        self._wrong_path_marks: Dict[int, int] = {}
        #: Scheduler-installed machine-quiesce hook (section 4.6: the
        #: reset scrub is a *global* barrier — every core must drain and
        #: acknowledge before any thread proceeds).  ``None`` until a
        #: :class:`~repro.runtime.scheduler.Scheduler` attaches; direct
        #: protocol-level users (the model checker, unit tests) pay the
        #: latency on the calling thread instead.
        self.quiesce_cb: Optional[Callable[[int], None]] = None

    def migrate(self, tid: int, core: int) -> None:
        """Move a thread to another core (section 5.2: speculative threads
        can migrate; their data is found through the transaction's VID)."""
        if not 0 <= core < self.config.num_cores:
            raise ValueError(f"core {core} out of range")
        self.contexts[tid].core = core

    def vid_reset(self) -> int:
        """Recycle the VID space; returns the broadcast latency.

        On a multi-socket machine with a scheduler attached, the scrub
        stalls *every* thread through :attr:`quiesce_cb` (the barrier of
        section 4.6 — no core may issue speculative accesses while VID
        tags are being cleared across the sliced LLC) and the resetting
        thread is charged only a 1-cycle issue slot, so the cost is not
        double-counted.  Flat machines keep the original model: the
        broadcast latency lands on the caller alone.
        """
        if self.active_vids:
            raise TransactionUsageError(
                f"VID reset with live transactions: {sorted(self.active_vids)}")
        latency = self.hierarchy.vid_reset()
        self.vid_space.reset()
        self.last_committed = 0
        self.stats.vid_resets += 1
        topo = self.config.topology
        if (self.quiesce_cb is not None and topo is not None
                and topo.sockets > 1):
            self.quiesce_cb(latency)
            return 1
        return latency

    # ------------------------------------------------------------------
    # Version storage: the versioned cache hierarchy
    # ------------------------------------------------------------------

    def _commit_versions(self, vid: int) -> int:
        """Lazy group commit: one broadcast, cheap (section 4.4)."""
        latency = self.hierarchy.commit(vid)
        if self._wrong_path_marks:
            self._wrong_path_marks = {
                line: v for line, v in self._wrong_path_marks.items()
                if v > vid}
        self.sla.on_commit(vid)
        return latency

    def _flush_versions(self) -> int:
        self.sla.on_abort()
        self._wrong_path_marks.clear()
        return self.hierarchy.abort()

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------

    def load(self, tid: int, addr: int, now: int = 0) -> AccessResult:  # hot-path
        """Load with the thread's current VID attached."""
        ctx = self.contexts[tid]
        vid = ctx.vid
        hierarchy = self.hierarchy
        try:
            if "load" in hierarchy.__dict__:
                # Instrumented (e.g. a protocol tracer wraps the bound
                # method as an instance attribute): go through the wrapper.
                result = hierarchy.load(ctx.core, addr, vid, now=now)
            else:
                hstats = hierarchy.stats
                hstats.loads += 1
                if vid > 0:
                    hstats.spec_loads += 1
                result = hierarchy._access(ctx.core, addr, vid,
                                           AccessKind.READ, None, now)
        except MisspeculationError as exc:
            # A load can misspeculate too: installing the fetched line may
            # evict a speculative version past the LLC (section 5.4).  The
            # abort must flush state here just like the store path.
            self._abort(explicit=False, cause=classify(exc), vid=exc.vid)
            raise
        if vid > 0:
            # The SLA (if one is needed) is sent when the load retires; it
            # is buffered store-queue style, so it adds traffic but no
            # program-order latency (section 5.1).  Inline record_load.
            stats = self.stats
            tx = stats._open.get(vid)
            if tx is None:
                tx = stats._open[vid] = OpenTransaction(vid)  # lint-ok: RL006 (once per transaction open)
            tx.read_lines.add(addr - (addr % stats.line_size))
            tx.spec_loads += 1
            stats.spec_loads += 1
            if result.sla_required:
                tx.slas_sent += 1
                stats.slas_sent += 1
        return result

    def store(self, tid: int, addr: int, value: int,
              now: int = 0) -> AccessResult:  # hot-path
        """Store with the thread's current VID attached."""
        ctx = self.contexts[tid]
        vid = ctx.vid
        hierarchy = self.hierarchy
        try:
            if "store" in hierarchy.__dict__:
                result = hierarchy.store(ctx.core, addr, vid, value, now=now)
            else:
                hstats = hierarchy.stats
                hstats.stores += 1
                if vid > 0:
                    hstats.spec_stores += 1
                result = hierarchy._access(ctx.core, addr, vid,
                                           AccessKind.WRITE, value, now)
        except MisspeculationError as exc:
            line = addr - (addr % self.config.line_size)
            if not self.sla.enabled and line in self._wrong_path_marks:
                # A false abort the SLA mechanism would have avoided: the
                # conflicting mark came from a squashed wrong-path load.
                self.stats.false_aborts_triggered += 1
                exc.cause = AbortCause.WRONG_PATH
            self._abort(explicit=False, cause=classify(exc), vid=exc.vid)
            raise
        if vid > 0:
            stats = self.stats
            tx = stats._open.get(vid)
            if tx is None:
                tx = stats._open[vid] = OpenTransaction(vid)  # lint-ok: RL006 (once per transaction open)
            tx.write_lines.add(addr - (addr % stats.line_size))
            tx.spec_stores += 1
            stats.spec_stores += 1
            if self.sla.enabled and self.sla.check_store(addr, vid):
                self.stats.false_aborts_avoided += 1
        return result

    def wrong_path_load(self, tid: int, addr: int) -> Tuple[int, int]:
        """A branch-speculative load that will be squashed (section 5.1).

        With SLAs enabled the load's data flows through the hierarchy but no
        line is marked (the SLA is simply never sent).  With SLAs disabled
        the load marks the line like any speculative load — setting up the
        false misspeculations the mechanism exists to avoid.

        Returns ``(value, latency)``.
        """
        ctx = self.contexts[tid]
        self.stats.wrong_path_loads += 1
        if self.sla.enabled or ctx.vid == 0:
            value, latency = self.hierarchy.peek(ctx.core, addr, ctx.vid)
            if ctx.vid > 0:
                hit = self.hierarchy.l1s[ctx.core].lookup(addr, ctx.vid)
                would_mark = (hit is None or not hit.is_speculative()
                              or hit.high_vid < ctx.vid)
                self.sla.record_wrong_path(addr, ctx.vid, would_mark)
            return value, latency
        result = self.hierarchy.load(ctx.core, addr, ctx.vid)
        line = addr - (addr % self.config.line_size)
        if ctx.vid > self._wrong_path_marks.get(line, 0):
            self._wrong_path_marks[line] = ctx.vid
        return result.value, result.latency

    def kernel_load(self, tid: int, addr: int) -> AccessResult:
        """A load from interrupt/exception-handler code (section 5.2).

        Handler PCs fall outside the registered text segment, so no VID is
        attached regardless of the thread's VID register.
        """
        ctx = self.contexts[tid]
        try:
            return self.hierarchy.load(ctx.core, addr, 0)
        except MisspeculationError as exc:
            exc.cause = AbortCause.INTERRUPT
            self._abort(explicit=False, cause=AbortCause.INTERRUPT,
                        vid=exc.vid)
            raise

    def kernel_store(self, tid: int, addr: int, value: int) -> AccessResult:
        """A store from interrupt/exception-handler code (section 5.2).

        A handler store landing on live speculative state is a
        conservative conflict (the hierarchy treats any non-speculative
        write to a speculative version as one); it aborts with cause
        ``INTERRUPT`` so the contention manager knows speculation lost to
        kernel activity, not to another transaction.
        """
        ctx = self.contexts[tid]
        try:
            return self.hierarchy.store(ctx.core, addr, 0, value)
        except MisspeculationError as exc:
            exc.cause = AbortCause.INTERRUPT
            self._abort(explicit=False, cause=AbortCause.INTERRUPT,
                        vid=exc.vid)
            raise

    def recovery_handlers(self) -> Dict[int, Optional[Callable[..., Any]]]:
        """The per-thread recovery code registered via ``initMTX``."""
        return {tid: ctx.recovery_handler for tid, ctx in self.contexts.items()}
