"""Cache-line records and read-only views with HMTX version tags.

Resident versions live as *slots* in a per-cache
:class:`~repro.coherence.store.LineStore` (DESIGN.md §13); every access
path, lazy fold and scrub works on slot ints and integer state codes.
This module holds the two object shapes that remain at the edges:

* :class:`CacheLine` — a detached record: the victim record an eviction
  hands back to the hierarchy, and the hand-built input of the
  ``_inject_line`` test hook;
* :class:`LineView` — a read-only attribute facade over one resident slot,
  returned by the introspection helpers (``lookup()``, ``versions()``,
  ``all_lines()``) for tests, experiments and trace tooling.

Each version carries, on top of its MOESI/speculative state and data, the
two VIDs of section 4.1:

``modVID``
    VID of the transaction whose speculative store created this version.
    0 for every non-speculative version.
``highVID``
    Highest VID that has accessed this version.

and the lazy-processing tags of section 5.3:

``seen_aborts``
    The simulator's exact formulation of the paper's CB/AB bits: the cache
    records each abort broadcast (with the ``LC_VID`` in force at that
    moment) in a tiny history; a line remembers how many aborts it has
    already processed.  On the next touch the deferred Figure 6/7
    transitions replay in order — commit up to the pre-abort ``LC_VID``,
    then the abort, then the current commit level.  Broadcasts are O(1),
    per-line processing is O(1), and the CB-set-then-abort race of the
    flash-bit scheme (see DESIGN.md) cannot occur.
``epoch``
    Fast-path tag (DESIGN.md, "Fast-path indexing"): the owning cache's
    event epoch at which this line was last lazily processed.  The cache
    bumps its epoch on every commit/abort/reset broadcast, so
    ``epoch == cache epoch`` proves the line has no pending events and the
    lazy fold can return immediately — the replay it skips would have been
    an exact no-op.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .states import CODE_SM, STATE_FROM_CODE, State


class CacheLine:
    """One detached version of a cache line (an eviction record).

    Multiple versions with the same ``addr`` but different
    ``mod_vid``/``high_vid`` may coexist in a single cache set — that is how
    HMTX materialises multiple memory versions (section 4.1).

    :meth:`retag`/:meth:`set_state`/:meth:`set_vids` notify an owning
    object-model cache (``cache._on_retag``) when one is attached; the
    slot-arena cache never attaches, so for its records they are plain
    field assignments.
    """

    __slots__ = ("addr", "state", "data", "mod_vid", "high_vid",
                 "seen_aborts", "lru_tick", "epoch", "cache")

    def __init__(self, addr: int, state: State, data: List[int],
                 mod_vid: int = 0, high_vid: int = 0,
                 seen_aborts: int = 0, lru_tick: int = 0) -> None:
        if mod_vid < 0 or high_vid < 0:
            raise ValueError("VIDs are non-negative")
        self.addr = addr
        self.state = state
        self.data = data
        self.mod_vid = mod_vid
        self.high_vid = high_vid
        #: Abort broadcasts this line has already lazily processed (stamped
        #: to the owning cache's abort count at install time).
        self.seen_aborts = seen_aborts
        #: Monotonic per-cache counter for LRU victim selection.
        self.lru_tick = lru_tick
        #: Owning cache's event epoch at the last lazy processing; -1 means
        #: "never processed by any cache".
        self.epoch = -1
        #: The object-model cache holding this line (None when detached).
        self.cache: Optional[object] = None

    @property
    def vids(self) -> Tuple[int, int]:
        """The ``(modVID, highVID)`` tuple used throughout the paper."""
        return (self.mod_vid, self.high_vid)

    def is_speculative(self) -> bool:
        return self.state.speculative

    def is_dirty(self) -> bool:
        return self.state.dirty

    def copy_data(self) -> List[int]:
        """A defensive copy of the line's words (new versions must not alias)."""
        return list(self.data)

    def retag(self, state: State, mod_vid: int, high_vid: int) -> None:
        """Change state and VIDs, notifying an attached owning cache."""
        cache = self.cache
        if cache is not None:
            cache._on_retag(self, state, mod_vid)
        self.state = state
        self.mod_vid = mod_vid
        self.high_vid = high_vid

    def set_state(self, state: State) -> None:
        """Change the coherence state, keeping VIDs."""
        self.retag(state, self.mod_vid, self.high_vid)

    def set_vids(self, mod_vid: int, high_vid: int) -> None:
        self.retag(self.state, mod_vid, high_vid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLine(0x{self.addr:x}, {self.state}"
            f"({self.mod_vid},{self.high_vid}))"
        )


class LineView:
    """Read-only attribute facade over one resident slot of a line store.

    A view reads the owning cache's columns on every attribute access, so
    it always shows the version's current fields.  It is valid while the
    version stays resident: once the slot is freed (eviction, drop, lazy
    invalidation) the slot may be recycled for another version, so tools
    must not hold views across operations that can remove the line.
    """

    __slots__ = ("cache", "slot")

    def __init__(self, cache, slot: int) -> None:
        self.cache = cache
        self.slot = slot

    @property
    def addr(self) -> int:
        return self.cache._store.addr[self.slot]

    @property
    def state(self) -> State:
        return STATE_FROM_CODE[self.cache._store.state[self.slot]]

    @property
    def data(self) -> List[int]:
        return self.cache._store.data[self.slot]

    @property
    def mod_vid(self) -> int:
        return self.cache._store.mod_vid[self.slot]

    @property
    def high_vid(self) -> int:
        return self.cache._store.high_vid[self.slot]

    @property
    def seen_aborts(self) -> int:
        return self.cache._store.seen_aborts[self.slot]

    @property
    def lru_tick(self) -> int:
        return self.cache._store.lru_tick[self.slot]

    @property
    def epoch(self) -> int:
        return self.cache._store.epoch[self.slot]

    @property
    def vids(self) -> Tuple[int, int]:
        return (self.mod_vid, self.high_vid)

    def is_speculative(self) -> bool:
        return self.cache._store.state[self.slot] >= CODE_SM

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLine(0x{self.addr:x}, {self.state}"
            f"({self.mod_vid},{self.high_vid}))"
        )
