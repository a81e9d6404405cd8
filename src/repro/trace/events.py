"""Protocol event tracing.

A :class:`ProtocolTracer` attaches to a :class:`~repro.coherence.hierarchy.
MemoryHierarchy` and records the protocol-level story of an execution:
accesses with the version they hit, version creations (the Figure 4 copy
arcs), commits, aborts, overflow spills, and misspeculations.  The trace is
what Figure 5 is for one address, for a whole run — invaluable both for
debugging workloads and for teaching the protocol.

The tracer is a subscriber of the instrumentation tap
(:mod:`repro.obs.tap`), which owns the method wrapping; untraced runs pay
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partialmethod
from typing import Dict, List, Optional

from ..coherence.hierarchy import MemoryHierarchy
from ..obs import tap


@dataclass(frozen=True)
class TraceEvent:
    """One protocol-level event."""

    seq: int
    kind: str          # load/store/commit/abort/misspeculation/...
    core: Optional[int] = None
    vid: Optional[int] = None
    addr: Optional[int] = None
    detail: str = ""
    #: Data value moved by a load/store (None for non-access events).
    #: The race detector replays value flow from this field.
    value: Optional[int] = None

    def render(self) -> str:
        parts = [f"{self.seq:>6}", self.kind.ljust(14)]
        if self.core is not None:
            parts.append(f"core{self.core}")
        if self.vid is not None:
            parts.append(f"vid={self.vid}")
        if self.addr is not None:
            parts.append(f"addr=0x{self.addr:x}")
        if self.value is not None:
            parts.append(f"val={self.value}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class TraceRecorder:
    """What both tracers share: a tap subscriber with an event stream."""

    def __init__(self, capacity: int, events) -> None:
        self.capacity = capacity
        self.events = events
        self.dropped = 0
        self._seq = 0

    @classmethod
    def attach(cls, target, **options):
        """Record ``target`` (a hierarchy, or a backend) from now on."""
        tracer = cls(target, **options)
        tap.subscribe(target, tracer)
        return tracer

    def _append(self, *fields) -> None:
        self._seq += 1
        self.events.append(TraceEvent(self._seq, *fields))

    def detach(self) -> None:
        """Stop recording (idempotent)."""
        tap.unsubscribe(self)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


class ProtocolTracer(TraceRecorder):
    """Records the protocol events of one hierarchy.

    Usage::

        tracer = ProtocolTracer.attach(system.hierarchy)
        ... run ...
        print(format_trace(tracer.events))
        tracer.detach()

    or, for the backend a run builds, ``with Tap(tracer).activate():``
    (:class:`~repro.obs.tap.Tap`), which traces its coherence model.

    Filters: pass ``addresses={...}`` to trace only specific lines (line
    addresses), or leave None to trace everything.
    """

    def __init__(self, hierarchy: Optional[MemoryHierarchy] = None,
                 addresses: Optional[set] = None,
                 capacity: int = 100_000) -> None:
        super().__init__(capacity, [])
        self.hierarchy = hierarchy
        self.addresses = addresses
        self._versions_before = 0

    # ------------------------------------------------------------------

    def attach_system(self, system) -> None:
        """Trace ``system``'s coherence model: the hierarchy of HMTX, the
        timing hierarchy of a software TM (SMTX, the oracle)."""
        timing = getattr(system, "timing", None)
        self.hierarchy = system.hierarchy if timing is None else timing
        tap.subscribe(self.hierarchy, self)

    # ------------------------------------------------------------------

    def _line(self, addr: int) -> int:
        return addr - (addr % self.hierarchy.config.line_size)

    def _interesting(self, addr: Optional[int]) -> bool:
        if addr is None or self.addresses is None:
            return True
        return self._line(addr) in self.addresses

    def record(self, kind: str, core: Optional[int] = None,
               vid: Optional[int] = None, addr: Optional[int] = None,
               detail: str = "", value: Optional[int] = None) -> None:
        if not self._interesting(addr):
            return
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self._append(kind, core, vid, addr, detail, value)

    # ------------------------------------------------------------------
    # Tap callbacks
    # ------------------------------------------------------------------

    def _before_access(self, core, addr, vid, *rest, **kwargs) -> None:
        self._versions_before = self.hierarchy.version_count(addr) \
            if self._interesting(addr) else 0

    def _after_access(self, name: str, result, core, addr, vid, *rest,
                      **kwargs) -> None:
        detail = f"hit={result.served_by}"
        if result.created_version:
            detail += " +version"
        if result.sla_required:
            detail += " sla"
        self.record(name, core, vid, addr, detail=detail, value=result.value)
        if self._interesting(addr):
            after = self.hierarchy.version_count(addr)
            if after != self._versions_before:
                self.record("versions", core, vid, addr,
                            detail=f"{self._versions_before} -> {after} "
                                   "cached")

    def _failed_access(self, err, cause, core, addr, vid, *rest,
                       **kwargs) -> None:
        self.record("misspeculation", core, vid, addr, detail=err.reason)

    before_load = before_store = _before_access
    after_load = partialmethod(_after_access, "load")
    after_store = partialmethod(_after_access, "store")
    failed_load = failed_store = _failed_access

    def after_commit(self, latency, vid) -> None:
        self.record("commit", vid=vid, detail=f"VID {vid}")

    def after_abort(self, latency) -> None:
        self.record("abort", detail="all uncommitted state flushed")

    def after_vid_reset(self, latency) -> None:
        self.record("vid_reset", detail="VID namespace recycled")
