"""Read-only views of resident cache-line versions.

Resident versions live as *slots* in a per-cache
:class:`~repro.coherence.store.LineStore` (DESIGN.md §13); every access
path, lazy fold, scrub and eviction works on slot ints and integer state
codes, and victims travel down the miss path as column values.  The one
object shape left is :class:`LineView`, a read-only attribute facade over
one resident slot, returned by the introspection helpers (``lookup()``,
``versions()``, ``all_lines()``) for tests, experiments and trace
tooling.

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

from typing import List, Tuple

from .states import CODE_SM, STATE_FROM_CODE, State


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
