"""The :class:`ContentionManager` facade: policy + detector + fallback.

This is the one object the runtime talks to.  On every abort the paradigm
executors (:mod:`repro.runtime.paradigms`) hand the manager the raised
:class:`~repro.errors.MisspeculationError`; the manager classifies it
(:mod:`~repro.txctl.causes`), records per-VID/per-cause statistics
(:mod:`~repro.txctl.stats`), updates the livelock detector
(:mod:`~repro.txctl.livelock`), consults the configured retry policy
(:mod:`~repro.txctl.policies`), and returns a single
:class:`~repro.txctl.policies.RetryDecision` the runtime executes:

* ``RETRY``     — rebuild speculative programs (stall ``delay`` first);
* ``SERIALIZE`` — rebuild in one-transaction-in-flight mode;
* ``FALLBACK``  — run the rest of the loop non-speculatively under the
  global lock (:mod:`~repro.txctl.fallback`).

The manager enforces the escalation contract: decisions are monotone
(once serialised, never back to free-running speculation; once fallen
back, done), livelock escalates instead of raising, and the hard recovery
bound ends in the fallback — or, only when the fallback is explicitly
disabled, in a typed :class:`~repro.errors.LivelockError` that names the
offending VID and the recovery count.
"""

from __future__ import annotations

from typing import Optional

from ..errors import LivelockError
from .causes import AbortEvent, event_from_exception
from .fallback import SerialFallback
from .livelock import EscalationLevel, LivelockDetector
from .policies import (
    Action,
    ExponentialBackoff,
    PolicyContext,
    RetryDecision,
    RetryPolicy,
)
from .stats import ContentionStats

#: Default hard bound on recoveries before the manager stops speculating.
DEFAULT_MAX_RECOVERIES = 64
#: Consecutive no-progress recoveries before serialising (matches the
#: seed runtime's behaviour, now one rung of the ladder).
DEFAULT_SERIALIZE_AFTER = 2
#: Consecutive no-progress recoveries before the non-speculative fallback
#: (serialisation gets a chance first: it cures conflicts, not capacity).
DEFAULT_FALLBACK_AFTER = 4

#: Sentinel distinguishing "default fallback" from "fallback disabled".
_DEFAULT_FALLBACK = object()


class ContentionManager:
    """Decides, per abort, how the runtime recovers.

    Parameters
    ----------
    policy:
        The pluggable retry policy (default
        :class:`~repro.txctl.policies.ExponentialBackoff`).
    fallback:
        The serial fallback.  ``None`` **disables** the fallback; the
        hard recovery bound then raises
        :class:`~repro.errors.LivelockError` (the seed behaviour, typed).
    max_recoveries / serialize_after_no_progress /
    fallback_after_no_progress:
        The escalation ladder's rungs (see module docstring).

    Counters go to a fresh :class:`~repro.txctl.stats.ContentionStats`
    until :meth:`bind` swaps in the system's ``stats.contention``, so the
    numbers surface in Table 1 and the stats dump.
    """

    def __init__(self, policy: Optional[RetryPolicy] = None,
                 fallback=_DEFAULT_FALLBACK,
                 max_recoveries: int = DEFAULT_MAX_RECOVERIES,
                 serialize_after_no_progress: int = DEFAULT_SERIALIZE_AFTER,
                 fallback_after_no_progress: int = DEFAULT_FALLBACK_AFTER
                 ) -> None:
        self.policy = policy or ExponentialBackoff()
        self.detector = LivelockDetector()
        self.fallback: Optional[SerialFallback] = (
            SerialFallback() if fallback is _DEFAULT_FALLBACK else fallback)
        self.max_recoveries = max_recoveries
        self.serialize_after_no_progress = serialize_after_no_progress
        self.fallback_after_no_progress = fallback_after_no_progress
        self.stats = ContentionStats()
        #: Whether on_abort records events itself.  A manager bound to a
        #: system must not: the system already recorded every abort (with
        #: its cause) at the source, in the same shared ContentionStats.
        self._records_aborts = True
        # Per-run state ------------------------------------------------
        self.recoveries = 0
        self.no_progress = 0
        self.serialized = False
        self.fallback_taken = False
        self._last_committed: Optional[int] = None
        self._vid_attempts: dict = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, system) -> "ContentionManager":
        """Attach to a system run: share its stats, reset per-run state.

        Safe to call once per run; a manager instance is single-run (like
        the scheduler it advises).
        """
        self.stats = system.stats.contention
        self._records_aborts = False
        self._last_committed = system.stats.committed
        self.recoveries = 0
        self.no_progress = 0
        self.serialized = False
        self.fallback_taken = False
        self._vid_attempts = {}
        self.policy.reset()
        self.detector.reset()
        return self

    @property
    def fallback_lock_held(self) -> bool:
        return self.fallback is not None and self.fallback.lock.held

    # ------------------------------------------------------------------
    # The decision point
    # ------------------------------------------------------------------

    def on_abort(self, exc: BaseException,
                 committed: int) -> RetryDecision:
        """Classify ``exc``, record it, and decide the next attempt.

        ``committed`` is ``system.stats.committed`` at the abort, used
        for progress tracking.  Raises
        :class:`~repro.errors.LivelockError` only when the hard bound is
        hit with the fallback disabled.
        """
        event = event_from_exception(exc, committed=committed)
        self.recoveries += 1
        if self._records_aborts:
            self.stats.record_event(event)
        self._vid_attempts[event.vid] = \
            self._vid_attempts.get(event.vid, 0) + 1

        baseline = self._last_committed or 0
        progressed = committed > baseline
        self._last_committed = committed
        self.no_progress = 0 if progressed else self.no_progress + 1

        before = self.detector.level
        level = self.detector.observe(progressed)
        if level > before:
            self.stats.record_escalation(str(level))

        ctx = PolicyContext(
            attempt=self.recoveries,
            vid_attempts=self._vid_attempts[event.vid],
            cause_attempts=self.stats.vid_cause_count(event.vid, event.cause),
            no_progress=self.no_progress,
            fallback_lock_held=self.fallback_lock_held,
        )
        decision = self.policy.decide(event, ctx)
        decision = self._escalate(event, decision, level)
        self._account(decision)
        return decision

    # ------------------------------------------------------------------

    def _escalate(self, event: AbortEvent, decision: RetryDecision,
                  level: EscalationLevel) -> RetryDecision:
        """Overlay the ladder on the policy's verdict (monotone)."""
        want_fallback = (
            decision.action is Action.FALLBACK
            or level >= EscalationLevel.FALLBACK
            or self.no_progress >= self.fallback_after_no_progress
            or self.recoveries > self.max_recoveries
            # A repeat non-transient abort cannot succeed speculatively
            # regardless of policy: don't burn the whole recovery budget.
            or (not event.cause.transient
                and self.stats.vid_cause_count(event.vid, event.cause) > 1
                and self.serialized)
        )
        if want_fallback:
            if self.fallback is None:
                raise LivelockError(event.vid, self.recoveries,
                                    detail=f"cause {event.cause}; "
                                           "serial fallback disabled")
            return RetryDecision(Action.FALLBACK, 0,
                                 decision.reason or "escalated to fallback")
        want_serial = (
            self.serialized
            or decision.action is Action.SERIALIZE
            or level >= EscalationLevel.SERIALIZE
            or self.no_progress >= self.serialize_after_no_progress
        )
        if want_serial:
            return RetryDecision(Action.SERIALIZE, decision.delay,
                                 decision.reason or "escalated to serialize")
        if level >= EscalationLevel.BACKOFF and decision.delay == 0:
            # Detector demands at least some spacing between attempts.
            return RetryDecision(Action.RETRY, 64,
                                 "livelock detector: minimum backoff")
        return decision

    def _account(self, decision: RetryDecision) -> None:
        if decision.action is Action.FALLBACK:
            self.fallback_taken = True
            self.stats.fallback_entries += 1
        elif decision.action is Action.SERIALIZE:
            self.serialized = True
            self.stats.serialized_recoveries += 1
            self.stats.backoff_cycles += decision.delay
        else:
            self.stats.retries += 1
            self.stats.backoff_cycles += decision.delay
