"""Livelock detection: watch commit/abort ratios, escalate instead of dying.

The seed runtime counted recoveries and raised ``ReproError("abort
livelock")`` at a fixed bound — punting the problem to the caller.  This
detector replaces the counter with a *sliding window* over recent abort
events: each abort is tagged with whether any transaction committed since
the previous abort (forward progress).  When the windowed no-progress
ratio rises, the detector escalates the recovery posture one level at a
time instead of raising:

====================  =================================================
level                 meaning for the contention manager
====================  =================================================
``NORMAL``            let the configured policy decide alone
``BACKOFF``           inject at least a minimum backoff delay
``SERIALIZE``         one transaction in flight (conflicts impossible)
``FALLBACK``          abandon speculation: serial non-speculative
                      execution under the global lock
====================  =================================================

Escalation is monotone within a run (``level`` never decreases), matching
the guarantee the runtime needs: once serialised, stay serialised until
the run completes — oscillating back to full speculation mid-recovery is
how real systems re-enter the livelock they just escaped.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque


class EscalationLevel(enum.IntEnum):
    """Monotone recovery-posture ladder."""

    NORMAL = 0
    BACKOFF = 1
    SERIALIZE = 2
    FALLBACK = 3

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


class LivelockDetector:
    """Sliding-window abort/commit-ratio monitor with monotone escalation.

    Parameters
    ----------
    window:
        Number of most-recent abort events considered.
    min_events:
        Aborts observed before any escalation is allowed (a single abort
        is not a livelock; the manager's no-progress ladder handles the
        first few aborts, so the window only speaks once it has data).
    backoff_ratio / serialize_ratio / fallback_ratio:
        No-progress fractions of the window at which the corresponding
        level is reached.  With the defaults, a quarter of the window
        without progress triggers backoff, half triggers serialisation
        and a window with almost no progress triggers the fallback.
    """

    def __init__(self, window: int = 8, min_events: int = 4,
                 backoff_ratio: float = 0.25,
                 serialize_ratio: float = 0.5,
                 fallback_ratio: float = 0.9) -> None:
        if not 0 < backoff_ratio <= serialize_ratio <= fallback_ratio:
            raise ValueError("escalation ratios must be ordered and positive")
        self.min_events = min_events
        self.backoff_ratio = backoff_ratio
        self.serialize_ratio = serialize_ratio
        self.fallback_ratio = fallback_ratio
        self._events: Deque[bool] = deque(maxlen=window)  # True = progressed
        self._level = EscalationLevel.NORMAL

    # ------------------------------------------------------------------

    def observe(self, progressed: bool) -> EscalationLevel:
        """Record one abort event; returns the (possibly raised) level."""
        self._events.append(progressed)
        candidate = self._assess()
        if candidate > self._level:
            self._level = candidate
        return self._level

    def _assess(self) -> EscalationLevel:
        if len(self._events) < self.min_events:
            return EscalationLevel.NORMAL
        ratio = self.no_progress_ratio
        if ratio >= self.fallback_ratio:
            return EscalationLevel.FALLBACK
        if ratio >= self.serialize_ratio:
            return EscalationLevel.SERIALIZE
        if ratio >= self.backoff_ratio:
            return EscalationLevel.BACKOFF
        return EscalationLevel.NORMAL

    # ------------------------------------------------------------------

    @property
    def level(self) -> EscalationLevel:
        """Current (monotone) escalation level."""
        return self._level

    @property
    def no_progress_ratio(self) -> float:
        """Fraction of windowed aborts that made no commit progress."""
        if not self._events:
            return 0.0
        stalled = sum(1 for progressed in self._events if not progressed)
        return stalled / len(self._events)

    def events_seen(self) -> int:
        return len(self._events)

    def reset(self) -> None:
        """Forget everything (fresh run)."""
        self._events.clear()
        self._level = EscalationLevel.NORMAL
