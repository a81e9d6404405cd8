"""Rendering protocol traces as text timelines."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .events import TraceEvent


def format_trace(events: Iterable[TraceEvent],
                 limit: Optional[int] = None,
                 dropped: int = 0) -> str:
    """One line per event, in sequence order.

    ``dropped`` (a ring tracer's ``dropped_events``) is surfaced in the
    header so a truncated window is never mistaken for a full trace.
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


def format_address_history(events: Iterable[TraceEvent], addr: int,
                           line_size: int = 64) -> str:
    """The Figure 5 view: everything that happened to one line."""
    base = addr - (addr % line_size)
    relevant = [e for e in events
                if e.addr is not None and e.addr - (e.addr % line_size) == base]
    header = f"history of line 0x{base:x} ({len(relevant)} events)"
    return "\n".join([header] + ["  " + e.render() for e in relevant])


def format_summary(summary: Dict[str, int]) -> str:
    width = max((len(k) for k in summary), default=4)
    lines = ["event counts:"]
    for kind in sorted(summary):
        lines.append(f"  {kind.ljust(width)}  {summary[kind]}")
    return "\n".join(lines)
