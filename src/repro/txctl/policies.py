"""Pluggable retry/backoff policies for abort recovery.

A policy answers one question: *given this classified abort, what should
the runtime do before the next attempt?*  The answer is a
:class:`RetryDecision` — retry speculatively (optionally after a backoff
delay), retry in serialised one-transaction-at-a-time mode, or give up on
speculation and take the non-speculative serial fallback.

The policies mirror the contention-management folklore of real HTM
deployments (the RTM fallback path classifies abort causes and delays
retry to avoid the lemming effect; hybrid-TM studies show this layer
dominates end-to-end throughput under contention):

* :class:`ImmediateRetry` — the seed runtime's behaviour: retry at once.
* :class:`ExponentialBackoff` — delay doubles per consecutive abort, with
  a deterministic jitter keyed by the aborting VID so distinct
  transactions desynchronise *reproducibly* (the simulator must stay
  bit-deterministic; real implementations use a PRNG here).
* :class:`CapacityAware` — capacity overflows are deterministic; a repeat
  capacity abort of the same transaction cannot succeed speculatively and
  goes straight to the fallback.
* :class:`LemmingAvoidance` — while the serial-fallback lock is held,
  speculative retries are pointless (they will conflict with the
  fallback's writes or immediately re-enter the fallback queue), so the
  retry is delayed until after the lock's expected hold time.

Policies are deterministic, stateless across runs (``reset()`` restores
pristine state), and composable: the cause-sensitive ones wrap an inner
policy that handles the transient causes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from .causes import AbortCause, AbortEvent


class Action(enum.Enum):
    """What the runtime does about an abort."""

    #: Re-run speculatively (after ``delay`` stall cycles).
    RETRY = "retry"
    #: Re-run speculatively but serialised: one transaction in flight.
    SERIALIZE = "serialize"
    #: Re-run non-speculatively under the global fallback lock.
    FALLBACK = "fallback"


@dataclass(frozen=True)
class RetryDecision:
    """A policy's verdict on one abort."""

    action: Action
    #: Cycles every core stalls before the next attempt (backoff).
    delay: int = 0
    #: Why the policy decided this (surfaces in stats/debugging).
    reason: str = ""


@dataclass(frozen=True)
class PolicyContext:
    """Runtime facts a policy may condition on."""

    #: Total recoveries so far in this run (1-based at first abort).
    attempt: int = 1
    #: Aborts this VID has suffered (including this one).
    vid_attempts: int = 1
    #: Aborts this VID has suffered *with this cause* (including this one).
    cause_attempts: int = 1
    #: Consecutive recoveries without a single commit of progress.
    no_progress: int = 0
    #: True while the serial-fallback global lock is held.
    fallback_lock_held: bool = False


class RetryPolicy:
    """Interface: map ``(event, context)`` to a :class:`RetryDecision`."""

    name = "policy"

    def decide(self, event: AbortEvent, ctx: PolicyContext) -> RetryDecision:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget per-run state (called when a manager is rebound)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ImmediateRetry(RetryPolicy):
    """Retry speculatively at once — the seed runtime's hard-coded loop."""

    name = "immediate"

    def decide(self, event: AbortEvent, ctx: PolicyContext) -> RetryDecision:
        return RetryDecision(Action.RETRY, 0, "immediate retry")


def deterministic_jitter(vid: int, attempt: int, spread: int) -> int:
    """Reproducible pseudo-random jitter in ``[0, spread)``.

    Keyed by the aborting VID (and the attempt number) through a Knuth
    multiplicative hash: two transactions that abort on the same line get
    *different* delays — breaking the retry convoy — yet every rerun of
    the simulation sees identical timing.
    """
    if spread <= 0:
        return 0
    h = (vid * 2654435761 + attempt * 40503) & 0xFFFFFFFF
    h ^= h >> 16
    return h % spread


class ExponentialBackoff(RetryPolicy):
    """Delay doubles per consecutive abort of the transaction, plus jitter.

    ``delay = min(ceiling, base * factor**(vid_attempts - 1)) + jitter``
    where ``jitter`` is deterministic in the VID (see
    :func:`deterministic_jitter`).
    """

    name = "backoff"

    def __init__(self, base: int = 32, factor: int = 2,
                 ceiling: int = 4096, jitter: Optional[int] = None) -> None:
        self.base = base
        self.factor = factor
        self.ceiling = ceiling
        #: Jitter spread; defaults to ``base`` (one quantum of spread).
        self.jitter = base if jitter is None else jitter

    def backoff_cycles(self, vid: int, attempts: int) -> int:
        exponent = min(max(attempts, 1) - 1, 20)  # clamp: no huge powers
        delay = min(self.ceiling, self.base * self.factor ** exponent)
        return delay + deterministic_jitter(vid, attempts, self.jitter)

    def decide(self, event: AbortEvent, ctx: PolicyContext) -> RetryDecision:
        delay = self.backoff_cycles(event.vid, ctx.vid_attempts)
        return RetryDecision(Action.RETRY, delay,
                             f"backoff attempt {ctx.vid_attempts}")


class CapacityAware(RetryPolicy):
    """No speculative retry on repeat capacity aborts — they cannot succeed.

    A capacity overflow (section 5.4) is a function of the transaction's
    write-set footprint, not of interleaving: the same speculative
    execution will evict the same version past the LLC again.  The first
    capacity abort is retried once (commits by *other* transactions may
    have released cache space); a repeat goes straight to the
    non-speculative fallback, which has no footprint limit.  Transient
    causes delegate to ``inner``.
    """

    name = "capacity-aware"
    max_capacity_attempts = 1

    def __init__(self, inner: Optional[RetryPolicy] = None) -> None:
        self.inner = inner or ExponentialBackoff()

    def decide(self, event: AbortEvent, ctx: PolicyContext) -> RetryDecision:
        if event.cause is AbortCause.CAPACITY_OVERFLOW \
                and ctx.cause_attempts > self.max_capacity_attempts:
            return RetryDecision(
                Action.FALLBACK, 0,
                f"VID {event.vid} capacity abort x{ctx.cause_attempts}: "
                "speculative retry cannot succeed")
        return self.inner.decide(event, ctx)

    def reset(self) -> None:
        self.inner.reset()


class LemmingAvoidance(RetryPolicy):
    """Delay speculative retry while the fallback lock is held.

    The classic HTM *lemming effect*: one thread takes the serial
    fallback, every speculative retry conflicts with it (or observes the
    lock held and aborts), falls back too, and the system never leaves
    serial mode.  The cure is the same as on real hardware: while the
    lock is held, wait it out — retry only after the expected hold time —
    so speculation resumes once the fallback drains.
    """

    name = "lemming"

    def __init__(self, inner: Optional[RetryPolicy] = None,
                 lock_hold_estimate: int = 2048) -> None:
        self.inner = inner or ExponentialBackoff()
        self.lock_hold_estimate = lock_hold_estimate

    def decide(self, event: AbortEvent, ctx: PolicyContext) -> RetryDecision:
        if ctx.fallback_lock_held:
            delay = self.lock_hold_estimate + deterministic_jitter(
                event.vid, ctx.attempt, self.lock_hold_estimate // 4)
            return RetryDecision(Action.RETRY, delay,
                                 "fallback lock held: delayed retry")
        return self.inner.decide(event, ctx)

    def reset(self) -> None:
        self.inner.reset()


#: Name -> constructor for the experiment sweep and the CLI.
POLICIES: Dict[str, type] = {
    ImmediateRetry.name: ImmediateRetry,
    ExponentialBackoff.name: ExponentialBackoff,
    CapacityAware.name: CapacityAware,
    LemmingAvoidance.name: LemmingAvoidance,
}


def make_policy(name: str) -> RetryPolicy:
    """Instantiate a policy by registry name (CLI / sweep plumbing)."""
    if name not in POLICIES:
        raise ValueError(f"unknown retry policy {name!r}; "
                         f"choose from {sorted(POLICIES)}")
    return POLICIES[name]()
