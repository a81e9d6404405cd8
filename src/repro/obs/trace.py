"""Event traces of a run: one record, one ring, two tracers.

A trace is the MTX story of a run as a numbered stream of
:class:`TraceEvent` records (``load``/``store``/``commit``/``abort``/
``misspeculation``/``vid_reset``, plus the hierarchy-only ``versions``).
:class:`TraceRecorder` owns the stream: the sequence counter, an optional
filter on line addresses, and the ring.  The ring keeps the most recent
``capacity`` events and counts the evicted ones in ``dropped``, so a long
run keeps its endgame instead of freezing at its start;
:func:`format_trace` puts a non-zero ``dropped`` in its header, and the
race checker reports it as rule ``RC000`` (a partial window proves
nothing).

Two tracers record into it, because the story has two levels:

* :class:`BackendTracer` watches the executor-facing surface of a
  :class:`~repro.backends.TMBackend` (``load``/``store``/``kernel_*``/
  ``commit_mtx``/``abort_mtx``/``vid_reset``).  That surface is the same
  for every backend, so :mod:`repro.analysis.racecheck` replays VID-ordered
  value flow (section 3) from it on HMTX, SMTX and the oracle alike.
  ``vid`` is the issuing thread's VID at issue (0 for kernel accesses,
  section 5.2) and ``value`` the data moved.  Wrong-path loads are not
  recorded: they are architecturally invisible.
* :class:`ProtocolTracer` watches a :class:`~repro.coherence.hierarchy.
  MemoryHierarchy` (HMTX's, or a software TM's timing hierarchy): each
  access with the cache that served it, version creations (the Figure 4
  copy arcs), SLAs, commits, aborts and VID resets.  That is Figure 5's
  line-by-line story, for a whole run.

Both are subscribers of the instrumentation tap (:mod:`repro.obs.tap`),
which owns the method wrapping, so untraced runs pay nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partialmethod
from typing import Dict, Iterable, List, Optional

from ..coherence.protocol import READ
from . import tap


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

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
    """A tap subscriber with one event ring.

    ``events`` is a deque without ``maxlen``, so ``capacity`` can be
    changed after construction.  ``addresses`` (line addresses, or None)
    keeps only the events that name no address or one of those lines.
    """

    #: Line granularity of the address filter.
    line_size = 64

    def __init__(self, capacity: int,
                 addresses: Optional[set] = None) -> None:
        self.capacity = capacity
        self.addresses = addresses
        self.events: deque = deque()
        self.dropped = 0
        self._seq = 0

    @classmethod
    def attach(cls, target, **options):
        """Record ``target`` (a hierarchy, or a backend) from now on."""
        tracer = cls(target, **options)
        tap.subscribe(target, tracer)
        return tracer

    def detach(self) -> None:
        """Stop recording (idempotent)."""
        tap.unsubscribe(self)

    def wants(self, addr: Optional[int]) -> bool:
        return (addr is None or self.addresses is None
                or addr - addr % self.line_size in self.addresses)

    def record(self, kind: str, core: Optional[int] = None,
               vid: Optional[int] = None, addr: Optional[int] = None,
               detail: str = "", value: Optional[int] = None) -> None:
        if not self.wants(addr):
            return
        events = self.events
        while len(events) >= self.capacity:
            events.popleft()
            self.dropped += 1
        self._seq += 1
        events.append(TraceEvent(self._seq, kind, core, vid, addr, detail,
                                 value))

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


class BackendTracer(TraceRecorder):
    """Records the architectural MTX events of one backend run.

    ``BackendTracer.attach(system)``, or ``with Tap(tracer).activate():``
    for every backend a run builds; then ``tracer.detach()``.
    """

    def __init__(self, system=None, capacity: int = 1_000_000) -> None:
        super().__init__(capacity)
        self.system = system

    def attach_system(self, system) -> None:
        self.system = system
        tap.subscribe(system, self)

    # Tap callbacks ----------------------------------------------------

    def _accessed(self, kind: str, kernel: bool, result, tid, addr, *rest,
                  **kwargs) -> None:
        # Accesses leave the thread's VID unchanged; a store's result
        # carries the value it wrote.
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


class ProtocolTracer(TraceRecorder):
    """Records the protocol events of one hierarchy.

    ``ProtocolTracer.attach(hierarchy, addresses={...})``, or
    ``with Tap(tracer).activate():`` to trace the coherence model of the
    backend a run builds; then ``tracer.detach()``.
    """

    def __init__(self, hierarchy=None, addresses: Optional[set] = None,
                 capacity: int = 100_000) -> None:
        super().__init__(capacity, addresses)
        self.hierarchy = hierarchy
        # What the access in flight did, read off the hierarchy around it.
        self._versions_before = 0
        self._sla_loads = 0
        self._versions_created = 0
        self._served_by = ""

    @property
    def line_size(self) -> int:
        return self.hierarchy.config.line_size

    def attach_system(self, system) -> None:
        """Trace ``system``'s coherence model: the hierarchy of HMTX, the
        timing hierarchy of a software TM (SMTX, the oracle)."""
        timing = getattr(system, "timing", None)
        self.hierarchy = system.hierarchy if timing is None else timing
        tap.subscribe(self.hierarchy, self)

    # Tap callbacks ----------------------------------------------------

    def before__access(self, core, addr, vid, kind, *rest) -> None:
        hierarchy = self.hierarchy
        self._sla_loads = hierarchy.sla_loads
        self._versions_created = hierarchy.versions_created
        # An L1 hit unless a miss's fetch names the responder.
        self._served_by = hierarchy.l1s[core].name
        self._versions_before = hierarchy.version_count(addr) \
            if self.wants(addr) else 0

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
        if self.wants(addr):
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


# Rendering -------------------------------------------------------------

def format_trace(events: Iterable[TraceEvent],
                 limit: Optional[int] = None,
                 dropped: int = 0) -> str:
    """One line per event, in sequence order.

    ``dropped`` (the recorder's) goes in the header, so a window the ring
    truncated is never mistaken for a full trace.
    """
    events = list(events)
    shown = events if limit is None else events[:limit]
    lines = ["   seq kind           details",
             "------ -------------- ----------------------------------"]
    if dropped:
        lines.insert(
            0, f"!! ring overflow: {dropped} oldest events dropped "
               f"(showing the most recent {len(events)})")
    lines += [event.render() for event in shown]
    if limit is not None and len(events) > limit:
        lines.append(f"... ({len(events) - limit} more events)")
    return "\n".join(lines)


def format_address_history(events: Iterable[TraceEvent], addr: int) -> str:
    """The Figure 5 view: everything that happened to one 64-byte line."""
    base = addr - (addr % 64)
    relevant = [e for e in events
                if e.addr is not None and e.addr - (e.addr % 64) == base]
    header = f"history of line 0x{base:x} ({len(relevant)} events)"
    return "\n".join([header] + ["  " + e.render() for e in relevant])


def format_summary(summary: Dict[str, int]) -> str:
    width = max((len(k) for k in summary), default=4)
    lines = ["event counts:"]
    for kind in sorted(summary):
        lines.append(f"  {kind.ljust(width)}  {summary[kind]}")
    return "\n".join(lines)
