"""Coherence states: MOESI plus the four speculative HMTX states.

The base protocol is snoopy MOESI (section 4.1).  HMTX adds four
*speculative* states:

``S-M`` (:attr:`State.SM`)
    The latest speculative version of a line with respect to original
    program order, dirty w.r.t. memory.
``S-O`` (:attr:`State.SO`)
    A speculatively accessed version later superseded by a speculative
    write with a higher VID; kept so lower-VID reads find their data.
``S-E`` (:attr:`State.SE`)
    Like S-M, but no version of the line was ever modified (clean);
    ``modVID`` is always 0 in this state.
``S-S`` (:attr:`State.SS`)
    A shared copy of a speculatively accessed line in a peer cache; never
    responds to snoops (an S-M/S-O/S-E copy responds instead).
"""

from __future__ import annotations

import enum


class State(enum.Enum):
    """MOESI + speculative coherence states of a cache line."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    OWNED = "O"
    MODIFIED = "M"
    SM = "S-M"
    SO = "S-O"
    SE = "S-E"
    SS = "S-S"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


SPECULATIVE_STATES = frozenset({State.SM, State.SO, State.SE, State.SS})
NONSPECULATIVE_STATES = frozenset(
    {State.INVALID, State.SHARED, State.EXCLUSIVE, State.OWNED, State.MODIFIED}
)

#: States whose data differs from (or may differ from) main memory and must
#: eventually be written back: M and O, plus S-M / S-O versions carrying
#: speculative or not-yet-written-back data.
DIRTY_STATES = frozenset({State.MODIFIED, State.OWNED, State.SM, State.SO})

#: States that may be silently dropped without writeback.
CLEAN_STATES = frozenset({State.SHARED, State.EXCLUSIVE, State.SE, State.SS})

#: "Latest version" speculative states: the copy that a write with a high
#: enough VID may extend, and that answers snoops for VIDs >= modVID.
LATEST_SPEC_STATES = frozenset({State.SM, State.SE})

#: Superseded / shared speculative states that only serve reads with VIDs
#: strictly below their highVID.
SUPERSEDED_SPEC_STATES = frozenset({State.SO, State.SS})

#: States granting write permission without a bus transaction.
WRITABLE_STATES = frozenset({State.MODIFIED, State.EXCLUSIVE})


# Convenience flags: each State member carries its classification as plain
# attributes (``state.speculative``, ``state.dirty``) for record-level code
# (eviction records, views, tests).  The access paths test the integer
# codes below instead.  The sets above remain the source of truth.
for _state in State:
    _state.speculative = _state in SPECULATIVE_STATES
    _state.dirty = _state in DIRTY_STATES
del _state


# ----------------------------------------------------------------------
# Integer state codes (struct-of-arrays line store, DESIGN.md section 13)
# ----------------------------------------------------------------------
#
# The line store keeps coherence states as one byte per line in a
# ``bytearray`` column.  The numbering is chosen so the protocol's state
# *classes* become range checks instead of set membership:
#
#   non-speculative valid : 1 <= code <= 4
#   speculative           : code >= CODE_SM  (5)
#   latest  (S-M / S-E)   : CODE_SM <= code <= CODE_SE  (5..6)
#   superseded (S-O / S-S): code >= CODE_SO  (7..8)

CODE_INVALID = 0
CODE_SHARED = 1
CODE_EXCLUSIVE = 2
CODE_OWNED = 3
CODE_MODIFIED = 4
CODE_SM = 5
CODE_SE = 6
CODE_SO = 7
CODE_SS = 8

#: code -> State member (index with a state code).
STATE_FROM_CODE = (
    State.INVALID, State.SHARED, State.EXCLUSIVE, State.OWNED,
    State.MODIFIED, State.SM, State.SE, State.SO, State.SS,
)

#: per-code dirty flag as an indexable byte table (M, O, S-M, S-O).
DIRTY_BY_CODE = bytes(
    1 if STATE_FROM_CODE[c] in DIRTY_STATES else 0
    for c in range(len(STATE_FROM_CODE))
)

#: code -> display name (``"S-M"``), for messages and reports.
CODE_NAMES = tuple(state.value for state in STATE_FROM_CODE)

for _code, _state in enumerate(STATE_FROM_CODE):
    _state.code = _code
del _code, _state


def is_speculative(state: State) -> bool:
    """True for the four HMTX speculative states."""
    return state.speculative


def is_dirty(state: State) -> bool:
    """True when a line in ``state`` must be written back before dropping."""
    return state.dirty


def is_valid(state: State) -> bool:
    """True for any state other than Invalid."""
    return state is not State.INVALID
