"""The seed's detached ``CacheLine`` record, kept for the frozen oracle.

The simulator has no line objects left on its eviction path: victims
travel as column values (``VersionedCache.install_slot``).  The
object-per-line oracle of ``test_store_differential.py``
(``legacy_store.py``) still holds one ``CacheLine`` per resident version,
and the ``State``-typed test adapters of :mod:`.state_rules` build these
records from column values.  ``conftest.py`` publishes the class as
``repro.coherence.line.CacheLine``, the name the oracle imports.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.coherence.states import State


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
