"""The HMTX coherence protocol as pure transition rules on state codes.

This module encodes Figures 4, 6 and 7 of the paper as side-effect-free
functions over ``(code, modVID, highVID, requestVID)`` integer tuples,
where ``code`` is the one-byte state code the line store keeps per
version (:mod:`repro.coherence.states`).  They are the *only* copy of the
rules: the hierarchy's access paths, the cache's lazy folds and VID-reset
scrub, the directory, the interleaving explorer and the exhaustive model
checker (MC001-MC008) all call these functions.  For speed,
``VersionedCache.lookup_slot`` inlines the hit window (the only copy:
every access and snoop looks up through it) and the fused L1-hit path in
``MemoryHierarchy._access`` inlines the in-place/SLA/entry decisions;
tier-1 tests drive them through every state and VID tuple and check
each outcome against the rules here.

Keeping the protocol pure and separate from the cache container makes the
informal correctness argument of section 4.3 directly testable: the flow-,
anti- and output-dependence cases are exhaustively enumerable.

Key rules (section 4.1):

* A request with VID ``a`` *hits* a speculative version ``(m, h)`` iff

  - ``S-M``/``S-E``: ``a >= m``
  - ``S-O``/``S-S``: ``m <= a < h``

  Requests hit at most one version of a line; the conditions above partition
  the VID space across the versions the protocol can create.

* A speculative **write** with VID ``a`` to the hitting version

  - aborts when the version is superseded (``S-O``/``S-S``) or when
    ``a < highVID`` (a logically-later access already happened);
  - modifies in place when ``a == modVID`` (same transaction re-writes);
  - otherwise creates a new ``S-M(a, a)`` version and leaves the unmodified
    copy behind in ``S-O(m, a)``.

* A speculative **read** with VID ``a`` raises the hit version's ``highVID``
  to ``max(highVID, a)`` on latest versions; superseded versions are
  immutable (their ``highVID`` records the superseding write).

The code numbering turns every state class into a range check
(non-speculative valid ``1..4``, latest ``S-M``/``S-E`` ``5..6``,
superseded ``S-O``/``S-S`` ``7..8``), which is what the functions below
test.
"""

from __future__ import annotations

import enum
from typing import Tuple

from .states import (
    CODE_EXCLUSIVE,
    CODE_INVALID,
    CODE_MODIFIED,
    CODE_OWNED,
    CODE_SE,
    CODE_SHARED,
    CODE_SM,
    CODE_SO,
    CODE_SS,
)

#: ``(code, modVID, highVID)`` of one version.
Version = Tuple[int, int, int]


class AccessKind(enum.Enum):
    """Kinds of memory requests the protocol distinguishes."""

    READ = "read"
    WRITE = "write"


#: The kinds as module constants for the access paths: reading an enum
#: member off its class costs several times a global lookup, and an
#: access tests its kind a few times.
READ = AccessKind.READ
WRITE = AccessKind.WRITE


#: :func:`write_outcome_code` results: what a speculative write does to
#: the version it hits.
WRITE_ABORT = 0
WRITE_IN_PLACE = 1
WRITE_NEW_VERSION = 2

#: Outcome code -> display name.
WRITE_OUTCOME_NAMES = ("abort", "in-place", "new-version")

#: Figure 7's surviving-state map: S-M -> O, S-E -> S, S-O -> O, S-S -> S
#: (see :func:`abort_transition_code` for the rationale).
_ABORT_SURVIVOR_CODE = {
    CODE_SM: CODE_OWNED,
    CODE_SE: CODE_SHARED,
    CODE_SO: CODE_OWNED,
    CODE_SS: CODE_SHARED,
}


def version_hits_code(code: int, mod_vid: int, high_vid: int,
                      req_vid: int) -> bool:
    """Does a request with VID ``req_vid`` hit this version of the line?

    Non-speculative valid states always hit (plain tag match); speculative
    states apply the VID window rules of section 4.1.  ``req_vid`` must
    already be the *effective* VID (non-speculative requests substitute the
    cache's ``LC_VID``, section 5.3).
    """
    if code >= CODE_SM:
        if code <= CODE_SE:
            return req_vid >= mod_vid
        # S-O / S-S: serves the window [modVID, highVID).
        return mod_vid <= req_vid < high_vid
    return code != CODE_INVALID


def read_transition_code(code: int, mod_vid: int, high_vid: int,
                         req_vid: int) -> Version:
    """State/VIDs of a version after a speculative read hits it.

    The caller guarantees :func:`version_hits_code` is true and
    ``req_vid > 0``.  Non-speculative states are entered into the
    speculative world here: a dirty line becomes ``S-M(0, a)``, a clean
    line ``S-E(0, a)`` (Figure 4; O/S follow the M/E path once exclusive
    access is acquired).
    """
    if code >= CODE_SM:
        if code <= CODE_SE:
            return code, mod_vid, (high_vid if high_vid >= req_vid
                                   else req_vid)
        return code, mod_vid, high_vid
    if code == CODE_MODIFIED or code == CODE_OWNED:
        return CODE_SM, 0, req_vid
    if code == CODE_EXCLUSIVE or code == CODE_SHARED:
        return CODE_SE, 0, req_vid
    raise ValueError(f"read cannot hit state code {code}")


def write_outcome_code(code: int, mod_vid: int, high_vid: int,
                       req_vid: int) -> int:
    """Classify a speculative write against the version it hits (Figure 4).

    Returns :data:`WRITE_ABORT`, :data:`WRITE_IN_PLACE` or
    :data:`WRITE_NEW_VERSION`.  Misspeculation cases (section 4.3):

    * the hit version is superseded (``S-O``/``S-S``) — some logically-later
      VID already superseded or is being served by this copy;
    * ``req_vid < high_vid`` on a latest version — a logically-later load or
      store already touched the line (read-after-write / output hazard).

    A non-speculative version is always safe to write: the write creates
    the first speculative version of the line.
    """
    if code >= CODE_SO:
        return WRITE_ABORT
    if code >= CODE_SM:
        if req_vid < high_vid:
            return WRITE_ABORT
        if req_vid == mod_vid:
            return WRITE_IN_PLACE
    return WRITE_NEW_VERSION


def new_version_code(code: int, mod_vid: int, high_vid: int,
                     req_vid: int) -> Tuple[int, int, int, int, int, int]:
    """The copy-creating write of Figure 4: ``(backup, fresh)`` versions.

    Returns ``(backup_code, backup_mod, backup_high, new_code, new_mod,
    new_high)``.  The previously-latest copy is preserved unmodified in
    ``S-O`` with its ``highVID`` raised to the writing VID, so that reads
    with lower VIDs can still find their data (write-after-read
    correctness).  The new version starts life as ``S-M(a, a)``.
    """
    if write_outcome_code(code, mod_vid, high_vid, req_vid) \
            != WRITE_NEW_VERSION:
        raise ValueError("new_version_code requires a WRITE_NEW_VERSION "
                         "outcome")
    return (CODE_SO, mod_vid if code >= CODE_SM else 0, req_vid,
            CODE_SM, req_vid, req_vid)


def commit_transition_code(code: int, mod_vid: int, high_vid: int,
                           commit_vid: int) -> Version:
    """Apply Figure 6's commit state machine to one version.

    * ``commit_vid >= highVID``: every transaction that touched this version
      has committed.  Latest versions become plain non-speculative lines
      (``S-M -> M``, ``S-E -> E``); superseded copies are dead
      (``S-O``/``S-S -> I``).
    * ``commit_vid < highVID``: the version stays speculative, but if its
      creating store belongs to a committed transaction (``modVID`` at or
      below the commit VID) the data is now architecturally real and
      ``modVID`` drops to 0.

    The ``modVID <= commit_vid`` generalisation of the figure's
    ``modVID == commit_vid`` condition is what lets several consecutive
    commits be folded into a single lazy processing step (section 5.3).
    """
    if code < CODE_SM:
        return code, mod_vid, high_vid
    if commit_vid >= high_vid:
        if code == CODE_SM:
            return CODE_MODIFIED, 0, 0
        if code == CODE_SE:
            return CODE_EXCLUSIVE, 0, 0
        return CODE_INVALID, 0, 0
    if 0 < mod_vid <= commit_vid:
        return code, 0, high_vid
    return code, mod_vid, high_vid


def abort_transition_code(code: int, mod_vid: int,
                          high_vid: int) -> Version:
    """Apply Figure 7's abort state machine to one version.

    Versions created by a speculative store (``modVID > 0``) hold doomed
    data and are invalidated.  Versions with ``modVID == 0`` hold
    architecturally-real data that was merely *read* speculatively (or
    backed up before a speculative write); they shed their speculative
    marking.

    Deviation from the paper's figure (see DESIGN.md): the figure maps
    ``S-M -> M`` and ``S-E -> E``, i.e. back to *exclusive* states.  But a
    surviving owner may still have ``S-S``-derived peer copies that also
    survive the abort (as ``S``); an owner that claims exclusivity could
    then silently write while a stale shared copy keeps serving old data.
    We therefore map to the shared states — ``S-M -> O``, ``S-E -> S``
    (``S-O -> O``, ``S-S -> S`` as in the figure) — which preserves data
    and dirtiness and merely costs one upgrade transaction on the next
    write.  Aborts are rare, so this is squarely within the paper's
    "push slowdowns to the rare abort case" philosophy.
    """
    if code < CODE_SM:
        return code, mod_vid, high_vid
    if mod_vid > 0:
        return CODE_INVALID, 0, 0
    return _ABORT_SURVIVOR_CODE[code], 0, 0


def reset_transition_code(code: int, mod_vid: int,
                          high_vid: int) -> Version:
    """Apply the VID-reset scrub of section 4.6 to one version.

    A reset is only legal once every outstanding transaction has committed,
    so any surviving latest version is real data (``-> M``/``E``) and any
    surviving superseded copy can never be hit again (``-> I``).
    """
    return commit_transition_code(code, mod_vid, high_vid, high_vid)
