"""Exception types shared across the HMTX reproduction."""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .txctl.causes import AbortCause


class ReproError(Exception):
    """Base class for all library-specific errors."""


class MisspeculationError(ReproError):
    """A data-dependence violation (or explicit abort) was detected.

    Carries enough context for the runtime's recovery code (the handler
    registered with ``initMTX``) to report and restart: the VID of the
    offending access, the address involved, a human-readable reason, and
    the abort *cause* (an :class:`~repro.txctl.causes.AbortCause`) stamped
    at the raise site so the contention manager can retry intelligently.
    ``cause`` is required; lint rule ``RL001`` also flags raise sites
    that omit it.
    """

    def __init__(self, reason: str, vid: int = 0, addr: int = -1, *,
                 cause: AbortCause) -> None:
        super().__init__(reason)
        self.reason = reason
        self.vid = vid
        self.addr = addr
        #: :class:`~repro.txctl.causes.AbortCause` stamped at the raise site.
        self.cause = cause

    def __reduce__(self):
        # Exceptions unpickle as ``cls(*args)``, which cannot pass the
        # keyword-only cause; sweep-pool workers send errors back pickled.
        return (partial(type(self), cause=self.cause),
                (self.reason, self.vid, self.addr))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MisspeculationError(vid={self.vid}, addr=0x{self.addr:x}, {self.reason!r})"


class SpeculativeOverflowError(MisspeculationError):
    """A speculative line that may not leave the cache hierarchy was evicted.

    Section 5.4: only ``S-O`` versions with ``modVID == 0`` may overflow to
    main memory; selecting any other speculative version as an LLC victim
    forces an abort.
    """


class ProtocolError(ReproError):
    """An internal invariant of the coherence protocol was violated.

    These indicate simulator bugs (e.g. two versions hitting one VID), not
    program misspeculation, and are never caught by recovery code.
    """


class TransactionUsageError(ReproError):
    """The HMTX ISA was used incorrectly (e.g. out-of-order commit)."""


class LivelockError(ReproError):
    """Abort recovery made no headway and no fallback was available.

    Raised by the contention manager only when the serial fallback is
    explicitly disabled — with the fallback enabled, livelock escalates
    into guaranteed-progress serial execution instead of an exception.
    Carries the last-aborting VID and the recovery count so the failure
    is diagnosable from the message alone.
    """

    def __init__(self, vid: int, recoveries: int,
                 detail: str = "") -> None:
        message = (f"abort livelock: VID {vid} still aborting after "
                   f"{recoveries} recoveries")
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.vid = vid
        self.recoveries = recoveries
