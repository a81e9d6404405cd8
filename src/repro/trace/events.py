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
from typing import Dict, List, Optional

from ..coherence.hierarchy import MemoryHierarchy
from ..coherence.protocol import READ
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
        # What the access in flight did, read off the hierarchy around it.
        self._versions_before = 0
        self._sla_loads = 0
        self._versions_created = 0
        self._served_by = ""

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

    def before__access(self, core, addr, vid, kind, *rest) -> None:
        hierarchy = self.hierarchy
        self._sla_loads = hierarchy.sla_loads
        self._versions_created = hierarchy.versions_created
        # An L1 hit unless a miss's fetch names the responder.
        self._served_by = hierarchy.l1s[core].name
        self._versions_before = hierarchy.version_count(addr) \
            if self._interesting(addr) else 0

    def after__fetch(self, result, *args) -> None:
        self._served_by = result[2]

    def after__access(self, result, core, addr, vid, kind, *rest) -> None:
        hierarchy = self.hierarchy
        detail = f"hit={self._served_by}"
        if hierarchy.versions_created != self._versions_created:
            detail += " +version"
        if hierarchy.sla_loads != self._sla_loads:
            detail += " sla"
        self.record("load" if kind is READ else "store", core,
                    vid, addr, detail=detail, value=result[0])
        if self._interesting(addr):
            after = hierarchy.version_count(addr)
            if after != self._versions_before:
                self.record("versions", core, vid, addr,
                            detail=f"{self._versions_before} -> {after} "
                                   "cached")

    def failed__access(self, err, cause, core, addr, vid, *rest) -> None:
        self.record("misspeculation", core, vid, addr, detail=err.reason)

    def after_commit(self, latency, vid) -> None:
        self.record("commit", vid=vid, detail=f"VID {vid}")

    def after_abort(self, latency) -> None:
        self.record("abort", detail="all uncommitted state flushed")

    def after_vid_reset(self, latency) -> None:
        self.record("vid_reset", detail="VID namespace recycled")
