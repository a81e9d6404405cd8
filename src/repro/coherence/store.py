"""Struct-of-arrays backing store for cache-line versions (DESIGN.md §13).

The seed's object-per-line model (one ``CacheLine`` object per resident
version) made every snoop, scrub and lazy commit/abort fold a
chain of Python attribute lookups and method calls.  This module replaces
it with a :class:`LineStore`: one arena of parallel stdlib columns per
cache, indexed by *slot*:

``state``
    one byte per slot (``bytearray``) holding the integer state code of
    :mod:`repro.coherence.states` — class checks are integer range checks;
``mod_vid`` / ``high_vid``
    the section 4.1 VID pair (``array('i')``);
``addr``
    the line (base) address (``array('q')``);
``epoch`` / ``seen_aborts``
    the lazy-processing stamps of section 5.3 (``array('q')``);
``lru_tick``
    the per-cache LRU counter sample (``array('q')``);
``data``
    the line's words, a plain Python list per slot.  Data rows are held
    *by reference* — ownership moves with the version: a victim's list
    travels to the LLC among its column values, and every copy-creating
    access (a forwarded copy, a new version) installs a fresh list.

Slots are recycled through a free list, so a slot index is stable for the
lifetime of the version living in it: the per-set lists and the per-base
version buckets store plain slot integers.
Freed slots are stamped ``FREE_CODE`` so a stale slot reference fails
loudly instead of silently reading a recycled line.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

#: State-column value of a slot on the free list (no valid state code).
FREE_CODE = 0xFF


class LineStore:
    """A slot arena of parallel per-line columns for one cache."""

    __slots__ = ("state", "mod_vid", "high_vid", "addr", "epoch",
                 "seen_aborts", "lru_tick", "data", "free_slots")

    def __init__(self) -> None:
        self.state = bytearray()
        self.mod_vid = array("i")
        self.high_vid = array("i")
        self.addr = array("q")
        self.epoch = array("q")
        self.seen_aborts = array("q")
        self.lru_tick = array("q")
        self.data: List[Optional[List[int]]] = []
        self.free_slots: List[int] = []

    def alloc(self, addr: int, code: int, data: List[int],
              mod_vid: int, high_vid: int) -> int:
        """Claim a slot for a new version; returns its index.

        The caller stamps ``epoch``/``seen_aborts``/``lru_tick`` itself
        (they are cache-local bookkeeping, not version identity).
        """
        free = self.free_slots
        if free:
            slot = free.pop()
            self.state[slot] = code
            self.mod_vid[slot] = mod_vid
            self.high_vid[slot] = high_vid
            self.addr[slot] = addr
            self.data[slot] = data
            return slot
        slot = len(self.state)
        self.state.append(code)
        self.mod_vid.append(mod_vid)
        self.high_vid.append(high_vid)
        self.addr.append(addr)
        self.epoch.append(0)
        self.seen_aborts.append(0)
        self.lru_tick.append(0)
        self.data.append(data)
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the free list (caller has unlinked all indices)."""
        assert self.state[slot] != FREE_CODE, f"double free of slot {slot}"
        self.state[slot] = FREE_CODE
        self.data[slot] = None
        self.free_slots.append(slot)
