"""Unbounded read/write sets: the memory-side overflow version table.

The paper's section 8: "similar to prior systems [27], unlimited read and
write sets could be supported by overflowing speculatively modified versions
of lines into memory and managing them via data structures."

This module implements that extension.  When the last-level cache must evict
a speculative version that the base protocol would abort on (anything except
an ``S-O`` backup with ``modVID == 0``), the version instead moves into an
:class:`OverflowVersionTable` — a software-managed, memory-resident
structure.  The table participates in the version-lookup protocol exactly
like a cache (same hit windows, same lazy commit/abort processing, same
``S-M`` assertion for section 5.4 retrieval), but with main-memory latency
plus a management overhead per touch.

Implementation note: the table reuses :class:`~repro.coherence.cache.
VersionedCache` with a single, very wide set — overflow is rare, linear
scans of the resident versions are exactly what a software hash structure
would do, and all of the lazy event-log machinery comes for free.
"""

from __future__ import annotations

from typing import List

from ..errors import SpeculativeOverflowError
from ..txctl.causes import AbortCause
from .cache import VersionedCache
from .states import CODE_NAMES

#: Extra cycles per overflow-table operation on top of memory latency
#: (hashing, pointer chasing in the software structure).
TABLE_MANAGEMENT_CYCLES = 60

#: How many overflowed versions the table holds before the system falls
#: back to aborting (a safety valve; "unlimited" in practice).
DEFAULT_TABLE_CAPACITY = 65536


class OverflowVersionTable(VersionedCache):
    """Memory-resident home for speculative versions evicted past the LLC."""

    def __init__(self, line_size: int = 64, memory_latency: int = 200,
                 capacity: int = DEFAULT_TABLE_CAPACITY,
                 vid_bits: int = 6) -> None:
        super().__init__(
            name="OverflowTable",
            size=capacity * line_size,
            assoc=capacity,     # one set, index 0 for every line
            line_size=line_size,
            hit_latency=memory_latency + TABLE_MANAGEMENT_CYCLES,
            vid_bits=vid_bits,
        )
        self.spills = 0
        self.refills = 0

    def spill(self, code: int, addr: int, data: List[int], mod_vid: int,
              high_vid: int) -> None:
        """Accept a speculative version (an LLC victim's column values)."""
        self.spills += 1
        evictions = self.stats.evictions
        _, code, addr, _, mod_vid, high_vid = self.install_slot(
            addr, code, data, mod_vid, high_vid)
        if self.stats.evictions != evictions:
            # Installing only evicts when the capacity safety valve blows;
            # the caller treats that as the base protocol's overflow abort.
            victim = (f"{CODE_NAMES[code]}({mod_vid},{high_vid})" if code
                      else "a clean version")
            raise SpeculativeOverflowError(
                f"overflow table capacity exceeded evicting {victim}",
                vid=mod_vid, addr=addr,
                cause=AbortCause.CAPACITY_OVERFLOW)

    def resident_versions(self) -> int:
        return self.occupancy()
