"""Directory-based HMTX coherence — the paper's section 8 scaling path.

"Future work could adapt the HMTX coherence scheme to a directory-based
protocol to allow for efficient scaling to many more cores."

The snoopy design broadcasts every miss on a shared bus, so concurrent
misses serialise (``hierarchy.BUS_OCCUPANCY`` cycles each) — fine at 4
cores, ruinous at 16.  :class:`DirectoryHierarchy` replaces the bus with a
banked directory co-located with the L2, sized and timed by the
``directory_*``, ``bank_occupancy`` and ``link_latency`` fields of the same
:class:`~repro.core.config.MachineConfig` the rest of the hierarchy reads:

* a **sharer map** tracks, per line address, which caches may hold
  versions.  Installs update it eagerly; removals are lazy, so the map is a
  conservative superset and a probe may find the entry stale (counted) —
  exactly how real sparse directories behave between acknowledgments;
* a miss consults the line's home **bank** (address-interleaved, each with
  its own occupancy window) and probes only the recorded sharers instead of
  broadcasting, so misses to different banks proceed in parallel;
* version selection, conflict detection, commit/abort, overflow — the
  entire HMTX protocol layer — is inherited unchanged, which is the point:
  the paper's scheme needs no global state to pick a version or detect a
  conflict, so it drops into a directory organisation directly.

Commit/abort remain broadcasts (they are O(1) register/event-log updates
per cache under the lazy scheme); the directory charges them a multicast
latency that grows logarithmically with core count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .cache import VersionedCache
from .hierarchy import BROADCAST_LATENCY, AccessKind, MemoryHierarchy
from .states import CODE_EXCLUSIVE, CODE_INVALID, CODE_SS


@dataclass
class DirectoryStats:
    """Directory-specific event counters."""

    lookups: int = 0
    probes_sent: int = 0
    stale_probes: int = 0
    invalidations_sent: int = 0
    bank_wait_cycles: int = 0


class DirectoryHierarchy(MemoryHierarchy):
    """The HMTX memory system with a banked directory instead of a bus."""

    def __init__(self, config) -> None:
        super().__init__(config)
        self.dir_stats = DirectoryStats()
        #: line address -> names of caches that may hold a version.
        self._sharers: Dict[int, Set[str]] = {}
        #: Each socket carries its own ``directory_banks`` banks next to
        #: its LLC slice (one socket — today's flat bank array — when no
        #: multi-socket topology is declared).
        self._bank_free: List[int] = [0] * (
            self._sockets * config.directory_banks)
        self._caches_by_name = {c.name: c for c in self._caches}
        if self._sockets == 1:
            # Flat: uniform tile-to-tile links and a log-depth multicast
            # tree over the cores (multi-socket machines keep the
            # topology's hops and tree cost, shared with the bus machine).
            self._hops = ((config.link_latency,),)
            self._core_hops = self._hops * config.num_cores
            fanout_depth = max(1, math.ceil(math.log2(config.num_cores + 1)))
            self._commit_cost = BROADCAST_LATENCY \
                + fanout_depth * config.link_latency

    # ------------------------------------------------------------------
    # Sharer-map maintenance
    # ------------------------------------------------------------------

    def _install(self, cache: VersionedCache, base: int, code: int,
                 data: List[int], mod_vid: int, high_vid: int) -> int:
        sharers = self._sharers.get(base)
        if sharers is None:
            self._sharers[base] = {cache.name}
        else:
            sharers.add(cache.name)
        return super()._install(cache, base, code, data, mod_vid, high_vid)

    def sharers_of(self, addr: int) -> Set[str]:
        """A copy of the (conservative) recorded sharer set of a line."""
        base = addr - (addr % self.config.line_size)
        return set(self._sharers.get(base, ()))

    def check_directory_invariant(self) -> None:
        """Every cached version's holder appears in the sharer map.

        Under a multi-socket topology two further invariants bind the
        sliced LLC to the directory: a line's home slice owns its
        directory entry (the entry lives in the home socket's banks, so
        any version resident in a *non-home* slice would be invisible to
        the probes the home bank sends), and hence no version may reside
        in a non-home slice at all.
        """
        for cache in self._caches:
            in_llc = cache.last_level
            store = cache._store
            for slot in cache.resident_slots():
                if store.state[slot] == CODE_INVALID:
                    continue
                addr = store.addr[slot]
                recorded = self._sharers.get(addr, ())
                assert cache.name in recorded, \
                    f"{cache.name} holds 0x{addr:x} unrecorded"
                if in_llc:
                    # Independently recomputed from the line interleave so
                    # a broken ``_home_llc`` router is caught, not trusted.
                    home = self.llc_slices[
                        (addr // self.config.line_size) % self._sockets]
                    assert cache is home, \
                        (f"version of 0x{addr:x} resident in "
                         f"{cache.name}, not its home slice {home.name}")

    # ------------------------------------------------------------------
    # Timing: banked directory instead of one shared bus
    # ------------------------------------------------------------------

    def _bank_of(self, addr: int) -> int:
        # The entry lives in the home socket's bank array, co-located with
        # the home LLC slice.
        line = addr // self.config.line_size
        banks = self.config.directory_banks
        return (line % self._sockets) * banks + line % banks

    def _bank_transaction(self, addr: int, now: int) -> int:
        # Misses are arbitrated per bank, not on one global bus.
        bank = self._bank_of(addr)
        wait = max(0, self._bank_free[bank] - now)
        self._bank_free[bank] = now + wait + self.config.bank_occupancy
        self.dir_stats.bank_wait_cycles += wait
        return wait + self.config.directory_latency

    # ------------------------------------------------------------------
    # Miss handling: directory lookup + targeted probes
    # ------------------------------------------------------------------

    def _fetch(self, core: int, addr: int, vid: int,
               kind: AccessKind, now: int = 0) -> Tuple[int, int, str]:
        self.stats.bus_snoops += 1     # kept: "coherence transactions"
        self.dir_stats.lookups += 1
        l1 = self.l1s[core]
        base = l1.line_addr(addr)
        # One-way tile-to-tile hops from the requester's socket: the flat
        # machine's uniform ``link_latency``, or the topology's
        # intra/cross-socket hops.
        hops = self._core_hops[core]
        home_socket = (base >> l1._line_shift) % self._sockets
        # Request travels to the line's home bank: one intra-socket hop on
        # the flat machine, a cross-socket hop when the home is remote.
        latency = self._bank_transaction(base, now) + hops[home_socket]
        spec_modified_asserted = (base in l1._by_base
                                  and l1.has_latest_spec_version(base))
        # Probes go out in name order; the sorted list is a snapshot, so a
        # stale entry can leave the stored set mid-loop.
        sharers = self._sharers.get(base, ())
        for name in sorted(sharers):
            if name == l1.name:
                continue
            cache = self._caches_by_name[name]
            self.dir_stats.probes_sent += 1
            if cache.has_latest_spec_version(addr):
                spec_modified_asserted = True
            owner = cache.lookup_slot(base, vid)
            if owner is None or cache._store.state[owner] == CODE_SS:
                if cache._process_bucket(base) is None:
                    # Stale directory entry: the holder silently dropped
                    # its copy; clean the map.
                    self.dir_stats.stale_probes += 1
                    sharers.discard(name)
                continue
            self.stats.peer_transfers += 1
            # The owner forwards the line directly to the requester
            # (three-hop protocol); charge the requester<->owner leg.
            latency += hops[self._cache_socket.get(name, home_socket)]
            if cache is self.overflow_table:
                latency += cache.hit_latency
                self.overflow_table.refills += 1
            slot = self._receive_from_owner(core, cache, owner, vid, kind)
            return slot, latency, cache.name
        # Memory responds through the home bank.
        latency += self.config.memory_latency
        if spec_modified_asserted:
            return self._fill_from_memory(l1, base, vid), latency, "memory"
        self.stats.memory_fetches += 1
        return (self._install(l1, base, CODE_EXCLUSIVE,
                              self.memory.read_line(base), 0, 0),
                latency, "memory")

    # ------------------------------------------------------------------
    # Invalidations become targeted multicasts
    # ------------------------------------------------------------------
    #
    # Same per-cache slot sweeps as the bus machine; only the visited
    # caches (the recorded sharers, in name order) and the directory
    # message counters differ.

    def _invalidate_nonspec_everywhere(
            self, base: int, keep_cache: Optional[VersionedCache] = None,
            keep_slot: int = -1) -> None:
        for name in sorted(self._sharers.get(base, ())):
            cache = self._caches_by_name[name]
            self.dir_stats.invalidations_sent += 1
            cache.drop_nonspec_copies(
                base, keep_slot if cache is keep_cache else -1)

    def _scrub_ss_copies(self, base: int, mod_vid: int) -> None:
        dropped = False
        for name in sorted(self._sharers.get(base, ())):
            if self._caches_by_name[name].drop_ss_copies(base, mod_vid):
                dropped = True
        if dropped:
            self.stats.ss_invalidations += 1
            self.dir_stats.invalidations_sent += 1
