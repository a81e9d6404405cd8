"""The architectural MTX contract, shared by every TM backend.

Section 3.1 fixes what software sees of a multithreaded transaction,
however the versions are stored: ``beginMTX`` / ``commitMTX`` /
``abortMTX`` / ``initMTX`` set a per-thread VID register, commits happen
in consecutive VID order (4.4: behaviour is undefined otherwise, so it is
a hard error here), an abort flushes *all* uncommitted state and rewinds
VID allocation to just past the last commit, and program output is held
back until its VID commits (4.7).

:class:`MTXMachine` enforces that contract once.  A backend subclasses it
and supplies only what differs: its memory operations and where versions
live, through two hooks —

``_commit_versions(vid)``
    make ``vid``'s versions the committed state and return the commit
    latency; it may abort and raise (SMTX's commit-time validation) before
    any commit bookkeeping happens;
``_flush_versions()``
    drop every uncommitted version and return the abort latency.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from ..coherence.vid import VidSpace
from ..errors import MisspeculationError, TransactionUsageError
from ..txctl.causes import AbortCause
from .config import MachineConfig
from .context import ThreadContext
from .stats import SystemStats


class MTXMachine:
    """VID registers, in-order group commit, abort/rewind, output buffering.

    ``vid_bits`` sizes the VID space: the hardware's m-bit register, or a
    practically unbounded software counter.
    """

    def __init__(self, config: MachineConfig, vid_bits: int) -> None:
        self.config = config
        self.vid_space = VidSpace(bits=vid_bits)
        self.stats = SystemStats(line_size=config.line_size)
        self.contexts: Dict[int, ThreadContext] = {}
        self.last_committed = 0
        self.active_vids: Set[int] = set()
        self.committed_output: list = []

    # ------------------------------------------------------------------
    # Thread management and VID allocation (sections 4.6, 4.7)
    # ------------------------------------------------------------------

    def thread(self, tid: int, core: int) -> ThreadContext:
        """Register (or fetch) the context of hardware thread ``tid``."""
        if tid not in self.contexts:
            if not 0 <= core < self.config.num_cores:
                raise ValueError(f"core {core} out of range")
            self.contexts[tid] = ThreadContext(tid=tid, core=core)
        return self.contexts[tid]

    def allocate_vid(self) -> int:
        """Allocate the next VID in original program order.

        Raises :class:`~repro.coherence.vid.VidExhaustedError` when the
        VID space is used up; the runtime must then drain commits and
        call ``vid_reset``.
        """
        vid = self.vid_space.allocate()
        self.active_vids.add(vid)
        return vid

    def ready_for_vid_reset(self) -> bool:
        """All VIDs used and every transaction committed (4.6)."""
        return self.vid_space.exhausted() and not self.active_vids

    # ------------------------------------------------------------------
    # The four MTX instructions (section 3.1)
    # ------------------------------------------------------------------

    def _mtx_latency(self, instruction: str) -> int:
        """Latency of the ``beginMTX`` / ``initMTX`` instruction."""
        return self.config.op_costs.mtx_instruction

    def begin_mtx(self, tid: int, vid: int) -> int:
        """``beginMTX(VID)``: set the thread's VID register.

        VID 0 moves the thread back to non-speculative execution without
        committing anything.  Returns the instruction latency.
        """
        if vid < 0 or vid > self.vid_space.max_vid:
            raise TransactionUsageError(
                f"VID {vid} outside 0..{self.vid_space.max_vid}")
        if vid > 0:
            if vid <= self.last_committed:
                raise TransactionUsageError(
                    f"beginMTX({vid}) after VID {self.last_committed} committed")
            self.active_vids.add(vid)
        self.contexts[tid].vid = vid
        return self._mtx_latency("begin")

    def init_mtx(self, tid: int, handler: Callable[..., Any]) -> int:
        """``initMTX(pc)``: register this thread's recovery code."""
        self.contexts[tid].recovery_handler = handler
        return self._mtx_latency("init")

    def commit_mtx(self, tid: int, vid: int) -> int:
        """``commitMTX(VID)``: atomic group commit of the whole MTX.

        Commits occur in consecutive VID order, exactly once, by exactly
        one thread of the transaction.  Returns the backend's commit
        latency.
        """
        if vid != self.last_committed + 1:
            raise TransactionUsageError(
                f"commitMTX({vid}) out of order; expected "
                f"{self.last_committed + 1}")
        if vid not in self.active_vids:
            raise TransactionUsageError(f"commitMTX({vid}) of unknown VID")
        latency = self._commit_versions(vid)
        self.active_vids.discard(vid)
        self.last_committed = vid
        self.stats.record_commit(vid)
        ctx = self.contexts[tid]
        for context in self.contexts.values():
            self.committed_output.extend(context.release_output(vid))
        if ctx.vid == vid:
            ctx.vid = 0
        return latency

    def abort_mtx(self, tid: int, vid: int) -> int:
        """``abortMTX(VID)``: software-detected misspeculation.

        Flushes *all* uncommitted transactional state (section 4.4's
        simple-and-rare abort philosophy), then raises
        :class:`~repro.errors.MisspeculationError` so every thread unwinds
        to its registered recovery code.
        """
        self._abort(explicit=True, cause=AbortCause.EXPLICIT, vid=vid)
        raise MisspeculationError(f"explicit abortMTX({vid})", vid=vid,
                                  cause=AbortCause.EXPLICIT)

    def output(self, tid: int, value: Any) -> None:
        """Emit program output; buffered until commit inside an MTX (4.7)."""
        ctx = self.contexts[tid]
        if ctx.vid > 0:
            ctx.buffer_output(value)
        else:
            self.committed_output.append(value)

    # ------------------------------------------------------------------
    # Version storage hooks and abort plumbing
    # ------------------------------------------------------------------

    def _commit_versions(self, vid: int) -> int:
        raise NotImplementedError

    def _flush_versions(self) -> int:
        raise NotImplementedError

    def _abort(self, explicit: bool = False,
               cause: Optional[AbortCause] = None, vid: int = 0) -> int:
        """Flush every uncommitted version and unwind all threads; returns
        the flush latency."""
        latency = self._flush_versions()
        self.stats.record_abort(explicit=explicit, cause=cause, vid=vid)
        for ctx in self.contexts.values():
            ctx.discard_output()
            ctx.vid = 0
        self.active_vids.clear()
        # Aborted VIDs are recycled: re-executed transactions restart right
        # after the last committed VID.
        self.vid_space.rewind(self.last_committed + 1)
        return latency
