"""Transaction-lifecycle timeline: per-VID spans and per-thread slices.

A :class:`TxSpan` is one *attempt* of one multithreaded transaction,
stamped in simulated cycles: allocate (``allocateVID``) → begin
(``beginMTX``) → end of the speculative execution window
(``beginMTX(0)``) → outcome (group commit, abort, or squash — an abort of
a *different* VID flushes this one too, the paper's all-or-nothing flush).
The :class:`~repro.obs.session.ObsSession` opens and closes spans as its
tap callbacks fire; this module turns the finished session plus
a cycle :class:`~repro.obs.profile.Attribution` into a render-ready
:class:`Timeline` (per-thread category slices, counter tracks) consumed
by both the Chrome exporter and the terminal Gantt view in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class TxSpan:
    """One attempt of one transaction (VID), in simulated cycles."""

    vid: int
    attempt: int
    allocate_ts: int
    tid: Optional[int] = None
    begin_ts: Optional[int] = None
    #: When the thread left the speculative window (``beginMTX(0)``).
    exec_end_ts: Optional[int] = None
    end_ts: Optional[int] = None
    #: ``commit`` | ``abort`` (this VID misspeculated) | ``squashed``
    #: (flushed by another VID's abort) | ``open`` (run ended first).
    outcome: str = "open"
    #: Abort-cause value for ``abort`` outcomes.
    cause: Optional[str] = None
    loads: int = 0
    stores: int = 0

    def normalized(self) -> "TxSpan":
        """Fill holes and clamp stamps monotone (allocate ≤ begin ≤
        exec_end ≤ end) — the invariant the exporter schema check and the
        golden test assert."""
        begin = self.begin_ts if self.begin_ts is not None else self.allocate_ts
        begin = max(begin, self.allocate_ts)
        end = self.end_ts if self.end_ts is not None else begin
        end = max(end, begin)
        exec_end = self.exec_end_ts if self.exec_end_ts is not None else end
        exec_end = min(max(exec_end, begin), end)
        return TxSpan(vid=self.vid, attempt=self.attempt,
                      allocate_ts=self.allocate_ts, tid=self.tid,
                      begin_ts=begin, exec_end_ts=exec_end, end_ts=end,
                      outcome=self.outcome, cause=self.cause,
                      loads=self.loads, stores=self.stores)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vid": self.vid, "attempt": self.attempt, "tid": self.tid,
            "allocate_ts": self.allocate_ts, "begin_ts": self.begin_ts,
            "exec_end_ts": self.exec_end_ts, "end_ts": self.end_ts,
            "outcome": self.outcome, "cause": self.cause,
            "loads": self.loads, "stores": self.stores,
        }


@dataclass
class Slice:
    """A maximal run of same-category cycles on one thread."""

    tid: int
    start: int
    duration: int
    category: str
    vid: int = 0


@dataclass
class Timeline:
    """Everything the exporters need, detached from live objects."""

    makespan: int
    spans: List[TxSpan]
    slices: List[Slice]
    thread_cores: Dict[int, int]
    #: kind -> list of instant events (``ts``/``vid``/``cause``/``addr``).
    instants: Dict[str, List[Dict[str, Any]]]
    #: name -> [(ts, value)] counter tracks.
    counters: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)


def _merge_slices(samples: List[list], categories: List[str]) -> List[Slice]:
    """Coalesce per-op samples into maximal same-category slices per tid.

    ``samples`` rows are ``[seq, tid, start, latency, vid, pretag]``;
    ``categories`` carries the final attribution, parallel to it.
    """
    per_tid: Dict[int, List[Tuple[int, int, str, int]]] = {}
    for row, category in zip(samples, categories):
        _, tid, start, latency, vid, _ = row
        if latency <= 0:
            continue
        per_tid.setdefault(tid, []).append((start, latency, category, vid))
    slices: List[Slice] = []
    for tid in sorted(per_tid):
        current: Optional[Slice] = None
        for start, latency, category, vid in per_tid[tid]:
            if (current is not None and current.category == category
                    and current.vid == vid
                    and start <= current.start + current.duration):
                current.duration = max(current.duration,
                                       start + latency - current.start)
            else:
                if current is not None:
                    slices.append(current)
                current = Slice(tid, start, latency, category, vid)
        if current is not None:
            slices.append(current)
    return slices


def build_timeline(session, attribution) -> Timeline:
    """Assemble the render-ready timeline from a finalized session."""
    spans = [span.normalized() for span in session.all_spans()]
    slices = _merge_slices(session.samples, attribution.categories)
    instants: Dict[str, List[Dict[str, Any]]] = {}
    for event in session.events:
        if event["kind"] in ("conflict", "abort", "vid_reset", "stall"):
            instants.setdefault(event["kind"], []).append(event)
    counters = {
        "spec_footprint_bytes": list(session.footprint_track),
        "runnable_threads": list(session.runnable_track),
        "live_vids": list(session.live_vid_track),
    }
    return Timeline(makespan=session.makespan, spans=spans, slices=slices,
                    thread_cores=dict(session.thread_cores),
                    instants=instants, counters=counters)
