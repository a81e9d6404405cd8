"""The SMTX system object: software MTXs behind the HMTX-shaped API.

:class:`SMTXSystem` shares the MTX contract of
:class:`~repro.core.mtx.MTXMachine` with :class:`repro.core.system.
HMTXSystem`, so the paradigm executors of :mod:`repro.runtime.paradigms`
drive it unchanged — same ``beginMTX``/``commitMTX`` discipline, same
statistics — but the implementation is a software TM:

* versions live in per-VID write buffers (:class:`~repro.smtx.memory.
  SmtxMemory`), not cache lines;
* every access in the validation set is logged and charged the worker-side
  logging cost; the commit process's sequential work is accumulated in
  ``commit_process_cycles`` and folded into the run time by
  :func:`repro.smtx.runtime.run_smtx`;
* reads are genuinely re-validated against committed state at commit time —
  a real conflict aborts, exactly like the original runtime;
* there is no SLA machinery: software systems never see squashed wrong-path
  loads (the instrumentation *is* program code), which is also why they are
  immune to section 5.1's problem.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..coherence.hierarchy import Access, MemoryHierarchy
from ..core.config import MachineConfig
from ..core.mtx import MTXMachine
from ..core.stats import OpenTransaction
from ..errors import MisspeculationError, TransactionUsageError
from ..txctl.causes import AbortCause
from .costs import SmtxCosts, ValidationMode
from .memory import SmtxMemory, ValidationLog

#: Predicate deciding whether an access (addr, is_store) is validated.
ValidationPredicate = Callable[[int, bool], bool]


class _MemoryFacade:
    """Duck-types ``system.hierarchy`` for workload setup/result readers.

    Values come from the software TM.  SMTX's timing hierarchy (see
    :class:`SMTXSystem`) has its own backing store whose *data* is never
    read, so speculative values cannot leak into committed state through
    writebacks.
    """

    def __init__(self, smtx_memory: SmtxMemory) -> None:
        self._memory = smtx_memory

    @property
    def memory(self):
        return self._memory.backing

    def read_committed(self, addr: int) -> int:
        """Verification read of committed state (no timing, no stats)."""
        return self._memory.read(0, addr)


class SMTXSystem(MTXMachine):
    """A commodity multicore running the SMTX software runtime.

    Parameters
    ----------
    config:
        The machine (``num_cores`` here is the count available to *worker*
        threads; the commit process occupies one more core — callers build
        the config accordingly).
    mode:
        Validation policy (minimal / substantial / maximal sets).
    validation_predicate:
        Which accesses belong to the validation sets under the chosen mode
        (derived from the workload by :func:`repro.smtx.runtime.run_smtx`).
    """

    #: The backend's name in error messages.
    _label = "smtx"

    def __init__(self, config: Optional[MachineConfig] = None,
                 mode: ValidationMode = ValidationMode.MAXIMAL,
                 validation_predicate: Optional[ValidationPredicate] = None,
                 costs: Optional[SmtxCosts] = None) -> None:
        # Software VIDs are plain integers; 30 bits ~= unbounded, so the
        # 4.6 overflow/reset machinery never triggers for SMTX.
        super().__init__(config or MachineConfig(), vid_bits=30)
        self.mode = mode
        self.costs = costs or SmtxCosts()
        self._validated = validation_predicate or (lambda addr, is_store: True)
        self.memory = SmtxMemory()
        self.log = ValidationLog()
        # Timing-only commodity hierarchy (all accesses non-speculative):
        # SMTX pays the same miss costs as HMTX.
        self.timing = MemoryHierarchy(self.config)
        self.hierarchy = _MemoryFacade(self.memory)
        #: Sequential work accumulated on the commit process's core.
        self.commit_process_cycles = 0

    def vid_reset(self) -> int:
        raise TransactionUsageError(
            f"{self._label} VIDs are unbounded; no reset exists")

    def _mtx_latency(self, instruction: str) -> int:
        # Entering/leaving a software transaction is a library call.
        return self.costs.instrument_read if instruction == "begin" else 1

    def _commit_versions(self, vid: int) -> int:
        """Commit via the commit process (validation + write application).

        The worker pays the handshake; the sequential per-entry validation
        work lands on ``commit_process_cycles``.
        """
        violation = self.log.validate(vid, self.memory)
        entries = self.log.entries(vid)
        self.commit_process_cycles += entries * self.costs.validate_entry
        self.commit_process_cycles += self.costs.commit_finalize
        if violation is not None:
            # A failed validation is SMTX's conflict detection: stamp the
            # same txctl cause HMTX conflicts carry, so the contention
            # manager (and the conformance suite) sees one taxonomy.
            self._abort(cause=AbortCause.CONFLICT, vid=vid)
            raise MisspeculationError(
                f"SMTX validation failed: VID {vid} read 0x{violation.addr:x} "
                f"= {violation.value_seen}, committed value differs",
                vid=vid, addr=violation.addr, cause=AbortCause.CONFLICT)
        self.memory.commit(vid)
        self.log.pop(vid)
        return self.costs.commit_finalize

    def _flush_versions(self) -> int:
        self.memory.abort_all()
        self.log.clear()
        return 0

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------

    def load(self, tid: int, addr: int, now: int = 0) -> Access:
        ctx = self.contexts[tid]
        vid = ctx.vid
        value, source_vid = self.memory.read_with_source(vid, addr)
        _, latency = self.timing.load(ctx.core, addr, 0, now)
        if vid > 0:
            latency += self.costs.instrument_read
            if source_vid != 0 and source_vid != vid:
                # Uncommitted value forwarding through software queues.
                latency += self.costs.forward_entry
            if self._validated(addr, False) and source_vid != vid:
                self.log.log_read(vid, addr, value)
                latency += self.costs.log_entry
            # Read-set accounting (software sends no SLAs).
            stats = self.stats
            tx = stats._open.get(vid)
            if tx is None:
                tx = stats._open[vid] = OpenTransaction(vid)
            tx.read_lines.add(addr - (addr % stats.line_size))
            tx.spec_loads += 1
            stats.spec_loads += 1
        return value, latency

    def store(self, tid: int, addr: int, value: int,
              now: int = 0) -> Access:
        ctx = self.contexts[tid]
        vid = ctx.vid
        _, latency = self.timing.store(ctx.core, addr, 0, 0, now)
        self.memory.write(vid, addr, value)
        if vid > 0:
            latency += self.costs.instrument_write
            if self._validated(addr, True):
                self.log.log_write(vid, addr, value)
                latency += self.costs.log_entry
            # Write-set accounting.
            stats = self.stats
            tx = stats._open.get(vid)
            if tx is None:
                tx = stats._open[vid] = OpenTransaction(vid)
            tx.write_lines.add(addr - (addr % stats.line_size))
            tx.spec_stores += 1
            stats.spec_stores += 1
        return value, latency

    def wrong_path_load(self, tid: int, addr: int) -> Access:
        """Squashed loads are invisible to a software TM (no logging)."""
        ctx = self.contexts[tid]
        value = self.memory.read(ctx.vid, addr)
        _, latency = self.timing.peek(ctx.core, addr, 0)
        return value, latency

    def kernel_load(self, tid: int, addr: int) -> Access:
        ctx = self.contexts[tid]
        _, latency = self.timing.load(ctx.core, addr, 0)
        return self.memory.read(0, addr), latency

    def kernel_store(self, tid: int, addr: int, value: int) -> Access:
        ctx = self.contexts[tid]
        _, latency = self.timing.store(ctx.core, addr, 0, 0)
        self.memory.write(0, addr, value)
        return value, latency
