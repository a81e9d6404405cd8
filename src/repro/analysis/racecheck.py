"""Offline race/ordering detector over recorded MTX trace event streams.

Input is a :class:`~repro.obs.trace.TraceEvent` sequence as recorded by
:class:`~repro.obs.trace.BackendTracer` (any registered backend) —
architectural loads/stores with values, commits, aborts, VID resets.  The
detector rebuilds the VID happens-before order and *replays* the paper's
MTX memory semantics over it:

* a store by VID ``v`` is **uncommitted** until ``commitMTX(v)``; an abort
  discards every uncommitted store; a commit folds VID ``v``'s stores into
  committed state;
* a load by VID ``a`` must observe the store of the **greatest VID
  <= a** among uncommitted stores (uncommitted value forwarding in VID
  order, section 3) falling back to committed state; VID 0 loads observe
  committed state only.

Any disagreement between the replay and the recorded load values is a
semantic violation of the protocol — a lost forwarded value, a leaked
aborted value, or a non-atomic group commit.  Ordering violations are
flagged directly from the event structure.

Rule catalog (DESIGN.md section 10):

``RC001`` lost/incorrect forwarded value
    A load observed a value different from the VID-ordered forwarding
    spec — e.g. a later-VID load that missed an earlier-VID uncommitted
    store, or that observed a value discarded by an abort.
``RC002`` group-commit atomicity / ordering
    Commits must occur in consecutive VID order (exactly the section 4.4
    contract), and no transaction may issue further speculative accesses
    under a VID that already committed (partial commit visibility).
``RC003`` abort attributed to a committed VID
    A misspeculation blamed on a VID at or below the commit horizon —
    the signature of stale wrong-path/SLA marks surviving a commit.
``RC004`` VID-recycling hazard
    A VID reset (section 4.6) while uncommitted speculative stores are
    still live — a recycled VID could alias the previous epoch's state.

The first traced load of a word initialised outside the traced window has
no replayable provenance: it is not judged, and its observed value is
adopted as the word's committed baseline (it must be — there is no
forwardable uncommitted store and no prior traced write).  Every later
load of the word is then fully checked, and the detector never reports a
false mismatch.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..obs.trace import TraceEvent
from .findings import SEVERITY_ERROR, Finding, PassReport

#: Word granularity of value replay; matches
#: :data:`repro.coherence.memory.DEFAULT_WORD_SIZE`.
DEFAULT_WORD_SIZE = 8

#: Reported-finding cap per rule (all violations are counted).
MAX_FINDINGS_PER_RULE = 10


class _Replay:
    """The architectural memory state rebuilt from the event stream."""

    def __init__(self) -> None:
        #: word -> committed value (known only once a store establishes it).
        self.committed: Dict[int, int] = {}
        #: word -> {vid: value} uncommitted speculative stores.
        self.spec: Dict[int, Dict[int, int]] = {}
        self.last_committed = 0
        self.live_spec_stores = 0

    def store(self, vid: int, word: int, value: int) -> None:
        if vid == 0:
            self.committed[word] = value
            return
        bucket = self.spec.setdefault(word, {})
        if vid not in bucket:
            self.live_spec_stores += 1
        bucket[vid] = value

    def expected_load(self, vid: int, word: int) -> Optional[int]:
        """The value the forwarding spec requires, or None if unknown."""
        best_vid = -1
        value = None
        if vid > 0:
            for svid, sval in self.spec.get(word, {}).items():
                if svid <= vid and svid > best_vid:
                    best_vid, value = svid, sval
        if best_vid >= 0:
            return value
        return self.committed.get(word)

    def commit(self, vid: int) -> None:
        self.last_committed = vid
        for word, bucket in list(self.spec.items()):
            if vid in bucket:
                self.committed[word] = bucket.pop(vid)
                self.live_spec_stores -= 1
            if not bucket:
                del self.spec[word]

    def abort(self) -> None:
        self.spec.clear()
        self.live_spec_stores = 0

    def reset(self) -> None:
        self.last_committed = 0


def check_trace(events: Iterable[TraceEvent],
                word_size: int = DEFAULT_WORD_SIZE,
                label: str = "trace") -> PassReport:
    """Replay MTX semantics over one recorded event stream."""
    replay = _Replay()
    report = PassReport(name="racecheck")
    counts = {"events": 0, "loads_checked": 0, "loads_unknown_baseline": 0,
              "stores": 0, "commits": 0, "aborts": 0, "vid_resets": 0,
              "violations": 0}
    per_rule: Dict[str, int] = {}

    def emit(rule: str, event: TraceEvent, message: str, detail: str) -> None:
        counts["violations"] += 1
        per_rule[rule] = per_rule.get(rule, 0) + 1
        if per_rule[rule] <= MAX_FINDINGS_PER_RULE:
            report.findings.append(Finding(
                rule, SEVERITY_ERROR, f"{label} seq {event.seq}",
                message, detail + f" | event: {event.render().strip()}"))

    for event in events:
        counts["events"] += 1
        kind = event.kind
        if kind == "store":
            counts["stores"] += 1
            vid = event.vid or 0
            word = event.addr - (event.addr % word_size)
            if 0 < vid <= replay.last_committed:
                emit("RC002", event,
                     f"speculative store under already-committed VID {vid}",
                     f"commit horizon is {replay.last_committed}; a store "
                     "after the group commit breaks atomicity")
            replay.store(vid, word, event.value)
        elif kind == "load":
            vid = event.vid or 0
            word = event.addr - (event.addr % word_size)
            if 0 < vid <= replay.last_committed:
                emit("RC002", event,
                     f"speculative load under already-committed VID {vid}",
                     f"commit horizon is {replay.last_committed}")
            expected = replay.expected_load(vid, word)
            if expected is None:
                counts["loads_unknown_baseline"] += 1
                # First traced touch of this word: no forwardable store
                # and no committed knowledge, so the observed value IS
                # the pre-existing committed value.  Adopt it as the
                # baseline so every later load of the word is judged.
                if event.value is not None:
                    replay.committed[word] = event.value
            else:
                counts["loads_checked"] += 1
                if event.value != expected:
                    detail = _mismatch_provenance(replay, vid, word,
                                                  expected, event.value)
                    emit("RC001", event,
                         f"load(VID {vid}, 0x{word:x}) observed "
                         f"{event.value}, forwarding spec requires "
                         f"{expected}", detail)
        elif kind == "commit":
            counts["commits"] += 1
            vid = event.vid if event.vid is not None else -1
            expected = replay.last_committed + 1
            if vid != expected:
                emit("RC002", event,
                     f"commit of VID {vid} out of order",
                     f"expected the consecutive commit of VID {expected} "
                     "(section 4.4 group-commit contract)")
            if vid > 0:
                replay.commit(vid)
        elif kind == "abort":
            counts["aborts"] += 1
            replay.abort()
        elif kind == "misspeculation":
            if event.vid is not None and \
                    0 < event.vid <= replay.last_committed:
                emit("RC003", event,
                     f"abort attributed to VID {event.vid}, which already "
                     "committed",
                     f"commit horizon is {replay.last_committed}; stale "
                     "wrong-path/SLA marks are the usual culprit")
        elif kind == "vid_reset":
            counts["vid_resets"] += 1
            if replay.live_spec_stores:
                emit("RC004", event,
                     "VID reset with uncommitted speculative stores live",
                     f"{replay.live_spec_stores} uncommitted store(s) "
                     "would alias recycled VIDs of the new epoch")
            replay.abort()
            replay.reset()

    report.coverage = counts
    return report


def _mismatch_provenance(replay: _Replay, vid: int, word: int,
                         expected: int, observed) -> str:
    """Explain where a mismatched load value (probably) came from."""
    sources = []
    for svid, sval in sorted(replay.spec.get(word, {}).items()):
        if sval == observed:
            sources.append(f"uncommitted store by VID {svid}")
    if replay.committed.get(word) == observed:
        sources.append("committed state")
    candidates = sorted(v for v in replay.spec.get(word, {}) if v <= vid)
    forwarding = (f"forwardable VIDs <= {vid}: {candidates or 'none'}, "
                  f"committed={replay.committed.get(word, 'unknown')}")
    if sources:
        return f"observed value matches {', '.join(sources)}; {forwarding}"
    return f"observed value has no traced provenance; {forwarding}"
