"""Backend-level MTX event capture, uniform across TM implementations.

:class:`~repro.trace.events.ProtocolTracer` records cache-protocol events
of a :class:`~repro.coherence.hierarchy.MemoryHierarchy` (HMTX's, or
the timing hierarchy of a software TM).  The race detector
(:mod:`repro.analysis.racecheck`) needs the *architectural* story —
which VID loaded/stored which value at which address, and when commits,
aborts and VID resets happened — for **every** registered backend, so it
can replay MTX semantics against any TM implementation.

:class:`BackendTracer` is a subscriber of the instrumentation tap
(:mod:`repro.obs.tap`): its callbacks observe the executor-facing surface
of a :class:`~repro.backends.TMBackend` (``load``/``store``/
``kernel_load``/``kernel_store``/``commit_mtx``/``abort_mtx``/
``vid_reset``), so untraced runs pay nothing, and the recorded stream
reuses :class:`TraceEvent` so all of the existing formatting/query
tooling applies.

Event kinds produced:

``load`` / ``store``
    One architectural memory access: ``vid`` is the issuing thread's VID
    *at issue time* (0 for non-speculative and kernel accesses), ``value``
    the data moved.  Accesses that raise a misspeculation are recorded as
    ``misspeculation`` instead.
``commit``
    A successful ``commitMTX(vid)`` — the group-commit point.
``abort``
    All uncommitted state was flushed (explicit ``abortMTX`` or the
    recovery path of a detected misspeculation).
``misspeculation``
    An access or commit detected a violation; always followed by the
    ``abort`` event recording the flush.
``vid_reset``
    The section 4.6 VID-namespace recycle.

Wrong-path (squashed) loads are deliberately *not* recorded: they are
architecturally invisible, and the race detector must not treat them as
real reads.

The event store is a **ring**: past ``capacity`` the *oldest* event is
evicted for each new one, so a long run always keeps its most recent
window (where the interesting endgame usually is) instead of silently
freezing at the start.  ``dropped_events`` counts the evictions;
:func:`~repro.trace.format.format_trace` surfaces it in the header and
the race detector reports any truncated trace as a hard finding (rule
``RC000`` — a racecheck over a partial window proves nothing).
"""

from __future__ import annotations

from collections import deque
from functools import partialmethod
from typing import Optional

from ..obs import tap
from .events import TraceRecorder


class BackendTracer(TraceRecorder):
    """Records the architectural MTX events of one backend run.

    Usage::

        tracer = BackendTracer.attach(system)
        ... run ...
        analyse(tracer.events)
        tracer.detach()

    or, for every backend a run builds, ``with Tap(tracer).activate():``
    (:class:`~repro.obs.tap.Tap`).
    """

    def __init__(self, system=None, capacity: int = 1_000_000) -> None:
        #: ``events`` is a ring of the most recent ``capacity`` events
        #: (oldest evicted first): a deque without ``maxlen`` so
        #: ``capacity`` can be adjusted after construction (tests do).
        super().__init__(capacity, deque())
        self.system = system

    @property
    def dropped_events(self) -> int:
        """Events evicted from the ring (0 means the trace is complete)."""
        return self.dropped

    # ------------------------------------------------------------------

    def attach_system(self, system) -> None:
        self.system = system
        tap.subscribe(system, self)

    # ------------------------------------------------------------------

    def record(self, kind: str, core: Optional[int] = None,
               vid: Optional[int] = None, addr: Optional[int] = None,
               detail: str = "", value: Optional[int] = None) -> None:
        while len(self.events) >= self.capacity:
            self.events.popleft()
            self.dropped += 1
        self._append(kind, core, vid, addr, detail, value)

    # ------------------------------------------------------------------
    # Tap callbacks
    # ------------------------------------------------------------------

    def _accessed(self, kind: str, kernel: bool, result, tid, addr, *rest,
                  **kwargs) -> None:
        # ``vid`` is the issuing thread's VID (accesses leave it
        # unchanged); kernel accesses always run at VID 0 (section 5.2).
        # A store's result carries the value it wrote.
        ctx = None if kernel else self.system.contexts.get(tid)
        self.record(kind, vid=ctx.vid if ctx is not None else 0, addr=addr,
                    value=result[0], detail="kernel" if kernel else "")

    def _misspeculated(self, name: str, err, cause, tid, addr, *rest,
                       **kwargs) -> None:
        self.record("misspeculation", vid=err.vid, addr=addr,
                    detail=err.reason)
        self.record("abort", detail="uncommitted state flushed "
                                    f"({name} misspeculated)")

    after_load = partialmethod(_accessed, "load", False)
    after_store = partialmethod(_accessed, "store", False)
    after_kernel_load = partialmethod(_accessed, "load", True)
    after_kernel_store = partialmethod(_accessed, "store", True)
    failed_load = partialmethod(_misspeculated, "load")
    failed_store = partialmethod(_misspeculated, "store")
    failed_kernel_load = partialmethod(_misspeculated, "kernel_load")
    failed_kernel_store = partialmethod(_misspeculated, "kernel_store")

    def after_commit_mtx(self, result, tid, vid) -> None:
        self.record("commit", vid=vid, detail=f"VID {vid}")

    def failed_commit_mtx(self, err, cause, tid, vid) -> None:
        # SMTX-style commit-time validation failure: the abort already
        # flushed all uncommitted state.
        self.record("misspeculation", vid=vid,
                    addr=getattr(err, "addr", None), detail=err.reason)
        self.record("abort", detail="uncommitted state flushed "
                                    "(commit validation failed)")

    def failed_abort_mtx(self, err, cause, tid, vid) -> None:
        self.record("abort", vid=vid, detail=f"explicit abortMTX({vid})")

    def after_vid_reset(self, result) -> None:
        self.record("vid_reset", detail="VID namespace recycled")
