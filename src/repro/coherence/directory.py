"""Directory-based HMTX coherence — the paper's section 8 scaling path.

"Future work could adapt the HMTX coherence scheme to a directory-based
protocol to allow for efficient scaling to many more cores."

The snoopy design broadcasts every miss on a shared bus, so concurrent
misses serialise (``HierarchyConfig.bus_occupancy``) — fine at 4 cores,
ruinous at 16.  :class:`DirectoryHierarchy` replaces the bus with a banked
directory co-located with the L2:

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .cache import VersionedCache
from .hierarchy import AccessKind, HierarchyConfig, MemoryHierarchy
from .states import CODE_INVALID, CODE_SS


@dataclass
class DirectoryStats:
    """Directory-specific event counters."""

    lookups: int = 0
    probes_sent: int = 0
    stale_probes: int = 0
    invalidations_sent: int = 0
    bank_wait_cycles: int = 0


@dataclass
class DirectoryConfig(HierarchyConfig):
    """Directory knobs on top of the base machine configuration."""

    #: Address-interleaved directory banks (each an independent pipeline).
    directory_banks: int = 8
    #: Cycles to look up a directory bank entry.
    directory_latency: int = 12
    #: Cycles each lookup occupies its bank.
    bank_occupancy: int = 4
    #: One-way point-to-point link latency between tiles.
    link_latency: int = 10


class DirectoryHierarchy(MemoryHierarchy):
    """The HMTX memory system with a banked directory instead of a bus."""

    def __init__(self, config: Optional[DirectoryConfig] = None) -> None:
        config = config or DirectoryConfig()
        super().__init__(config)
        self.dconfig = config
        self.dir_stats = DirectoryStats()
        #: line address -> names of caches that may hold a version.
        self._sharers: Dict[int, Set[str]] = {}
        #: Each socket carries its own ``directory_banks`` banks next to
        #: its LLC slice (one socket — today's flat bank array — when no
        #: multi-socket topology is declared).
        self._bank_free: List[int] = [0] * (
            self._sockets * config.directory_banks)
        self._caches_by_name = {c.name: c for c in self._all_caches()}
        if self._sockets == 1:
            # Flat: uniform tile-to-tile links and a log-depth multicast
            # tree over the cores (multi-socket machines keep the
            # topology's hops and tree cost, shared with the bus machine).
            self._hops = ((config.link_latency,),)
            fanout_depth = max(1, math.ceil(math.log2(config.num_cores + 1)))
            self._commit_cost = config.broadcast_latency \
                + fanout_depth * config.link_latency

    # ------------------------------------------------------------------
    # Sharer-map maintenance
    # ------------------------------------------------------------------

    def _install(self, cache: VersionedCache, base: int, code: int,
                 data: List[int], mod_vid: int, high_vid: int) -> int:
        self._sharers.setdefault(base, set()).add(cache.name)
        return super()._install(cache, base, code, data, mod_vid, high_vid)

    def _record_presence(self, cache: VersionedCache, addr: int) -> None:
        self._sharers.setdefault(addr, set()).add(cache.name)

    def sharers_of(self, addr: int) -> Set[str]:
        """The (conservative) recorded sharer set of a line."""
        base = addr - (addr % self.config.line_size)
        return set(self._sharers.get(base, set()))

    def check_directory_invariant(self) -> None:
        """Every cached version's holder appears in the sharer map.

        Under a multi-socket topology two further invariants bind the
        sliced LLC to the directory: a line's home slice owns its
        directory entry (the entry lives in the home socket's banks, so
        any version resident in a *non-home* slice would be invisible to
        the probes the home bank sends), and hence no version may reside
        in a non-home slice at all.
        """
        for cache in self._all_caches():
            in_llc = cache in self._llc_group
            store = cache._store
            for slot in cache.resident_slots():
                if store.state[slot] == CODE_INVALID:
                    continue
                addr = store.addr[slot]
                recorded = self._sharers.get(addr, set())
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
        banks = self.dconfig.directory_banks
        return (line % self._sockets) * banks + line % banks

    def _link(self, socket_a: int, socket_b: int) -> int:
        """One-way tile-to-tile message latency.

        The flat machine keeps the historical uniform ``link_latency``;
        multi-socket machines charge the topology's intra/cross-socket
        hops.
        """
        return self._hops[socket_a][socket_b]

    def _bank_transaction(self, addr: int, now: int) -> int:
        bank = self._bank_of(addr)
        wait = max(0, self._bank_free[bank] - now)
        self._bank_free[bank] = now + wait + self.dconfig.bank_occupancy
        self.dir_stats.bank_wait_cycles += wait
        return wait + self.dconfig.directory_latency

    def _bus_transaction(self, now: int) -> int:
        """Misses are arbitrated per bank, not on one global bus.

        The base class calls this with only the current time; the actual
        per-bank accounting happens in :meth:`_fetch`, so this contributes
        nothing extra.
        """
        return 0

    # ------------------------------------------------------------------
    # Miss handling: directory lookup + targeted probes
    # ------------------------------------------------------------------

    def _fetch(self, core: int, addr: int, vid: int,
               kind: AccessKind, now: int = 0) -> Tuple[int, int, str]:
        self.stats.bus_snoops += 1     # kept: "coherence transactions"
        self.dir_stats.lookups += 1
        l1 = self.l1s[core]
        base = l1.line_addr(addr)
        req_socket = self._cache_socket[l1.name]
        home_socket = (base // self.config.line_size) % self._sockets
        # Request travels to the line's home bank: one intra-socket hop on
        # the flat machine, a cross-socket hop when the home is remote.
        latency = self._bank_transaction(base, now) \
            + self._link(req_socket, home_socket)
        spec_modified_asserted = l1.has_latest_spec_version(addr)
        recorded = [name for name in sorted(self.sharers_of(base))
                    if name != l1.name]
        for name in recorded:
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
                    self._sharers.get(base, set()).discard(name)
                continue
            self.stats.peer_transfers += 1
            # The owner forwards the line directly to the requester
            # (three-hop protocol); charge the requester<->owner leg.
            owner_socket = self._cache_socket.get(name, home_socket)
            latency += self._link(req_socket, owner_socket)
            if self.overflow_table is not None and cache is self.overflow_table:
                latency += cache.hit_latency
                self.overflow_table.refills += 1
            slot = self._receive_from_owner(core, cache, owner, vid, kind)
            return slot, latency, cache.name
        # Memory responds through the home bank.
        latency += self.config.memory_latency
        return (self._fill_from_memory(l1, base, vid, spec_modified_asserted),
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
        for name in sorted(self.sharers_of(base)):
            cache = self._caches_by_name[name]
            self.dir_stats.invalidations_sent += 1
            cache.drop_nonspec_copies(
                base, keep_slot if cache is keep_cache else -1)

    def _scrub_ss_copies(self, base: int, mod_vid: int) -> None:
        dropped = False
        for name in sorted(self.sharers_of(base)):
            if self._caches_by_name[name].drop_ss_copies(base, mod_vid):
                dropped = True
        if dropped:
            self.stats.ss_invalidations += 1
            self.dir_stats.invalidations_sent += 1
