"""The full memory system: per-core L1s, shared L2, snoopy bus, memory.

This module orchestrates the protocol of section 4: local L1 lookup, bus
snoop of peer L1s and the shared L2, memory fetch (including the section 5.4
overflow-retrieval path), version creation on speculative writes, commit and
abort broadcasts, and the eviction/overflow rules.

The hierarchy is *non-inclusive*: L1 victims of any version are written back
to the L2 "as normal" (section 4.1); only eviction past the last-level cache
is restricted (section 5.4).

One state representation (DESIGN.md section 13): every access path here —
the fused L1 hit, the bus fetch, forwarding from a peer owner, upgrades,
version creation, installs and victim handling — works on cache slot ints
and integer state codes, and takes its decisions from the code-level rules
of :mod:`repro.coherence.protocol`.  Installs pass column values straight
to :meth:`VersionedCache.install_slot`, and its victims come back as
column values too, so an evicted version travels down the miss path (L1
to LLC, LLC to memory or the overflow table) with no line object at any
step (lint rule RL009 keeps it that way).  :meth:`MemoryHierarchy._install`
applies the section 5.4 eviction rules to those values in its own loop.

System-wide invariants maintained here (and checked by the test suite):

* at most one *latest* (``S-M``/``S-E``) version per address exists anywhere;
* within a cache, at most one version of an address hits any given VID;
* ``S-S`` copies never serve writes and are invalidated whenever their
  underlying version is written (the upgrade bus transaction of MOESI,
  carried over to the speculative world);
* non-speculative requests substitute ``LC_VID`` in hit logic only — they
  never create or extend speculative versions (sections 5.3, 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import MisspeculationError, SpeculativeOverflowError
from ..topology import TopologySpec
from ..txctl.causes import AbortCause
from .cache import VersionedCache
from .line import LineView
from .memory import DEFAULT_WORD_SIZE, MainMemory
from .overflow import OverflowVersionTable
from .protocol import (
    READ,
    WRITE,
    WRITE_ABORT,
    WRITE_IN_PLACE,
    AccessKind,
    new_version_code,
    read_transition_code,
    version_hits_code,
    write_outcome_code,
)
from .states import (
    CODE_EXCLUSIVE,
    CODE_MODIFIED,
    CODE_NAMES,
    CODE_OWNED,
    CODE_SE,
    CODE_SHARED,
    CODE_SM,
    CODE_SO,
    CODE_SS,
    DIRTY_BY_CODE,
)


@dataclass
class HierarchyConfig:
    """Geometry and latency knobs (defaults follow Table 2)."""

    num_cores: int = 4
    l1_size: int = 64 * 1024
    l1_assoc: int = 8
    l1_latency: int = 2
    l2_size: int = 32 * 1024 * 1024
    l2_assoc: int = 32
    l2_latency: int = 40
    line_size: int = 64
    memory_latency: int = 200
    vid_bits: int = 6
    #: Cycles for a commit/abort broadcast on the L1-L2 bus (lazy scheme:
    #: just bus arbitration plus the flash-set, no per-line processing).
    broadcast_latency: int = 10
    #: Cycles one bus transaction (snoop + line transfer) occupies the
    #: shared L1-L2 bus.  Concurrent requesters serialise on it, which is
    #: the first-order reason the snoopy design stops scaling past a few
    #: cores (the paper's future work proposes a directory protocol).
    bus_occupancy: int = 8
    #: Section 8 extension: when True, speculative versions evicted past
    #: the LLC spill into a memory-side version table instead of aborting
    #: ("unlimited read and write sets").
    unbounded_sets: bool = False
    #: Machine shape (sockets, LLC slices, NUMA hops).  ``None`` or any
    #: 1-socket spec is the flat Table 2 machine: one shared LLC with the
    #: ``l2_*`` geometry, no NUMA charges — bit-identical to the
    #: pre-topology hierarchy.  A multi-socket spec slices the LLC per
    #: socket and charges intra/cross-socket hop latencies.
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        # The access paths index words and lines with shifts and masks, so
        # the geometry must be power-of-two throughout.
        words = self.line_size // DEFAULT_WORD_SIZE
        if self.line_size & (self.line_size - 1) \
                or self.line_size % DEFAULT_WORD_SIZE \
                or words & (words - 1):
            raise ValueError(
                f"line_size must be a power of two holding a power-of-two "
                f"number of {DEFAULT_WORD_SIZE}-byte words, got "
                f"{self.line_size}")
        if self.topology is not None \
                and self.topology.num_cores != self.num_cores:
            raise ValueError(
                f"topology describes {self.topology.num_cores} cores "
                f"({self.topology.sockets}x"
                f"{self.topology.cores_per_socket}) but num_cores is "
                f"{self.num_cores}")


#: What a load or store returns: ``(value, latency)``, the word loaded or
#: stored and the cycles the access took.  A plain tuple: one is built per
#: memory access, so construction cost is on the simulator's critical
#: path.  What else an access did is counted on the hierarchy
#: (:attr:`MemoryHierarchy.sla_loads`, :attr:`MemoryHierarchy.
#: versions_created`, the caches' hit and miss counts).
Access = Tuple[int, int]


@dataclass
class HierarchyStats:
    """Aggregate memory-system statistics."""

    loads: int = 0
    stores: int = 0
    spec_loads: int = 0
    spec_stores: int = 0
    bus_snoops: int = 0
    peer_transfers: int = 0
    memory_fetches: int = 0
    ss_invalidations: int = 0
    bus_wait_cycles: int = 0
    nonspec_overflows: int = 0
    overflow_retrievals: int = 0
    spec_overflow_spills: int = 0
    commits: int = 0
    aborts: int = 0
    vid_resets: int = 0


class MemoryHierarchy:
    """Per-core L1 caches over a shared L2 over main memory."""

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        self.memory = MainMemory(line_size=cfg.line_size, latency=cfg.memory_latency)
        self.l1s = [
            VersionedCache(
                f"L1[{i}]", cfg.l1_size, cfg.l1_assoc, cfg.line_size,
                hit_latency=cfg.l1_latency, vid_bits=cfg.vid_bits)
            for i in range(cfg.num_cores)
        ]
        topo = cfg.topology
        # The machine shape is resolved here, once: a flat machine (no
        # topology, or one socket) is the 1-socket case of every table
        # below, so the access paths never branch on it.
        if topo is not None and not topo.flat:
            # One LLC slice per socket; line addresses interleave across
            # home sockets, so each slice (and its directory state in the
            # directory subclass) owns a disjoint slice of the line space.
            self.llc_slices: Tuple[VersionedCache, ...] = tuple(
                VersionedCache(
                    f"LLC[{s}]", topo.llc_slice_size, topo.llc_slice_assoc,
                    cfg.line_size, hit_latency=topo.llc_slice_latency,
                    vid_bits=cfg.vid_bits)
                for s in range(topo.sockets))
            self._llc_latency = topo.llc_slice_latency
            core_sockets = [topo.socket_of_core(i)
                            for i in range(cfg.num_cores)]
            #: One-way hop latency between two sockets' tiles.
            self._hops: Tuple[Tuple[int, ...], ...] = tuple(
                tuple(topo.hop_latency(a, b) for b in range(topo.sockets))
                for a in range(topo.sockets))
            # Broadcasts travel the multicast tree; resets add the scrub
            # barrier.
            self._commit_cost = topo.multicast_latency(cfg.broadcast_latency)
            self._reset_cost = topo.reset_scrub_latency(
                cfg.broadcast_latency, topo.llc_slice_latency)
        else:
            self.llc_slices = (VersionedCache(
                "L2", cfg.l2_size, cfg.l2_assoc, cfg.line_size,
                hit_latency=cfg.l2_latency, vid_bits=cfg.vid_bits),)
            self._llc_latency = cfg.l2_latency
            core_sockets = [0] * cfg.num_cores
            # The shared bus: no NUMA hop, one bus broadcast.
            self._hops = ((0,),)
            self._commit_cost = cfg.broadcast_latency
            self._reset_cost = cfg.broadcast_latency
        self._sockets = len(self.llc_slices)
        self._llc_group = frozenset(self.llc_slices)
        #: Socket owning each cache, by name (L1s follow their core;
        #: slices their socket).
        self._cache_socket: Dict[str, int] = {
            l1.name: socket for l1, socket in zip(self.l1s, core_sockets)}
        for s, llc in enumerate(self.llc_slices):
            self._cache_socket[llc.name] = s
        self.stats = HierarchyStats()
        #: Speculative loads that touched a version not yet marked with
        #: their VID — exactly the loads that send an SLA message when they
        #: retire (section 5.1) — and speculative stores that created a
        #: fresh line version.  What an access did beyond its ``(value,
        #: latency)`` is read off these counters; they stay out of
        #: HierarchyStats, whose fields the committed goldens record.
        self.sla_loads = 0
        self.versions_created = 0
        #: Section 8 extension: memory-side home for overflowed versions.
        self.overflow_table: Optional[OverflowVersionTable] = None
        if cfg.unbounded_sets:
            self.overflow_table = OverflowVersionTable(
                line_size=cfg.line_size, memory_latency=cfg.memory_latency,
                vid_bits=cfg.vid_bits)
        #: Simulated time at which the shared bus next becomes free.
        self._bus_free = 0
        # Precomputed cache orderings: the bus snoop / broadcast orders are
        # fixed at construction, so the hot paths iterate tuples instead of
        # rebuilding lists per access.
        self._caches: Tuple[VersionedCache, ...] = ()
        self._peer_lists: List[Tuple[VersionedCache, ...]] = []
        self._rebuild_cache_lists()
        #: Word-index shift of the access paths (HierarchyConfig enforces
        #: power-of-two geometry).
        self._word_shift = self.memory.word_size.bit_length() - 1

    def _rebuild_cache_lists(self) -> None:
        caches: List[VersionedCache] = list(self.l1s) + list(self.llc_slices)
        if self.overflow_table is not None:
            caches.append(self.overflow_table)
        self._caches = tuple(caches)
        self._peer_lists = []
        for core in range(len(self.l1s)):
            peers = [c for i, c in enumerate(self.l1s) if i != core]
            peers.extend(self.llc_slices)
            if self.overflow_table is not None:
                # Consulted last: a version found here pays memory latency
                # plus the software-structure management cost.
                peers.append(self.overflow_table)
            self._peer_lists.append(tuple(peers))

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------

    def _home_llc(self, addr: int) -> VersionedCache:
        """The LLC slice owning ``addr``'s line (the shared L2 when flat)."""
        return self.llc_slices[
            (addr // self.config.line_size) % self._sockets]

    def _bus_transaction(self, now: int) -> int:
        """Acquire the shared bus at time ``now``; returns wait + occupancy.

        With a single active core the bus is always free by the time the
        next miss issues; under parallel execution concurrent misses queue
        up behind each other, throttling speedup exactly as shared-bus
        bandwidth does on real snoopy multicores.
        """
        wait = max(0, self._bus_free - now)
        self._bus_free = now + wait + self.config.bus_occupancy
        self.stats.bus_wait_cycles += wait
        return wait + self.config.bus_occupancy

    # ------------------------------------------------------------------
    # Public access interface
    # ------------------------------------------------------------------

    def load(self, core: int, addr: int, vid: int, now: int = 0) -> Access:
        """Perform a (possibly speculative) load from ``addr`` with ``vid``.

        ``now`` is the requesting core's current cycle, used for shared-bus
        contention accounting.
        """
        return self._access(core, addr, vid, READ, None, now)

    def store(self, core: int, addr: int, vid: int, value: int,
              now: int = 0) -> Access:
        """Perform a (possibly speculative) store to ``addr`` with ``vid``."""
        return self._access(core, addr, vid, WRITE, value, now)

    def read_committed(self, addr: int) -> int:
        """Verification read of committed state: a pure read.

        Used by workloads' post-run result checks, so it charges no time,
        bumps no statistic, touches no LRU tick and applies no lazy fold:
        verification must not perturb the state the experiments report.
        Any cached version a non-speculative request would hit (resolved,
        against that cache's ``LC_VID``) holds the committed value;
        otherwise memory does.
        """
        base = self.llc_slices[0].line_addr(addr)
        for cache in self._caches:
            for slot in cache._by_base.get(base, ()):
                tags = cache.resolved(slot)
                if tags is not None \
                        and version_hits_code(*tags, cache.lc_vid):
                    return cache._store.data[slot][self._word(addr)]
        return self.memory.read_word(addr)

    def peek(self, core: int, addr: int, vid: int) -> Tuple[int, int]:
        """Read the value ``vid`` would observe *without marking any line*.

        Models a wrong-path (branch-speculative) load under the SLA scheme
        of section 5.1: the load's data moves through the system, but no
        line is marked with its VID.  Returns ``(value, latency)``.
        """
        l1 = self.l1s[core]
        base = l1.line_addr(addr)
        word = self._word(addr)
        slot = l1.lookup_slot(base, vid)
        if slot is not None:
            return l1._store.data[slot][word], l1.hit_latency
        latency = l1.hit_latency + self._llc_latency
        for cache in self._peer_lists[core]:
            slot = cache.lookup_slot(base, vid)
            if slot is not None and cache._store.state[slot] != CODE_SS:
                return cache._store.data[slot][word], latency
        return self.memory.read_word(addr), latency + self.config.memory_latency

    # ------------------------------------------------------------------
    # Broadcasts
    # ------------------------------------------------------------------

    def commit(self, vid: int) -> int:
        """Group-commit transaction ``vid`` everywhere; returns latency.

        Flat machines pay the bus broadcast; multi-socket machines pay the
        precomputed multicast-tree cost (cross-socket fan-out, then on-die).
        """
        self.stats.commits += 1
        for cache in self._caches:
            cache.broadcast_commit(vid)
        return self._commit_cost

    def abort(self) -> int:
        """Flush all uncommitted transactional state; returns latency."""
        self.stats.aborts += 1
        for cache in self._caches:
            cache.broadcast_abort()
        return self._commit_cost

    def vid_reset(self) -> int:
        """Perform the section 4.6 VID reset; returns latency.

        Legal only after every outstanding transaction has committed (the
        software side guarantees this before raising the reset signal).
        Multi-socket machines pay the reset-scrub barrier on top of the
        multicast tree: every LLC slice sweeps and acknowledges, so the
        stall grows with the socket count (the ROADMAP's reset-storm knee).
        """
        self.stats.vid_resets += 1
        for cache in self._caches:
            cache.vid_reset()
        return self._reset_cost

    # ------------------------------------------------------------------
    # Introspection helpers (tests, experiments)
    # ------------------------------------------------------------------

    def versions_everywhere(self, addr: int) -> List[Tuple[str, LineView]]:
        """All cached versions of ``addr`` with their cache names."""
        out = []
        for cache in self._caches:
            for line in cache.versions(addr):
                out.append((cache.name, line))
        return out

    def version_count(self, addr: int) -> int:
        """``len(versions_everywhere(addr))``, folding no lazy state."""
        return sum(cache.version_count(addr) for cache in self._caches)

    def speculative_footprint_bytes(self) -> int:
        """Bytes of speculative versions currently resident (Figure 9 aid).

        O(#caches): reads the maintained per-cache speculative-line
        counters instead of walking every resident line.
        """
        return self.config.line_size * sum(
            cache.speculative_lines for cache in self._caches)

    def check_invariants(self) -> None:
        """Assert the system-wide protocol invariants (test support).

        Also cross-checks the fast-path layer: the per-cache version
        indices and filter counters must exactly mirror the set contents
        they summarise.
        """
        latest_owners = {}
        for cache in self._caches:
            cache.check_index_integrity()
            in_llc = cache in self._llc_group
            store = cache._store
            for slot in cache.resident_slots():
                addr = store.addr[slot]
                if CODE_SM <= store.state[slot] <= CODE_SE:
                    if addr in latest_owners:
                        raise AssertionError(
                            f"two latest versions of 0x{addr:x}: "
                            f"{latest_owners[addr]} and {cache.name}")
                    latest_owners[addr] = cache.name
                if in_llc:
                    # Sliced-LLC ownership: a line only ever resides in its
                    # home slice — victims route there, and installs never
                    # target a foreign slice.  Recomputed from the line
                    # interleave (not via ``_home_llc``) so a broken router
                    # cannot vouch for its own placement.
                    home = self.llc_slices[
                        (addr // self.config.line_size) % self._sockets]
                    if cache is not home:
                        raise AssertionError(
                            f"version of 0x{addr:x} resident in "
                            f"{cache.name} but homed at {home.name}")

    # ------------------------------------------------------------------
    # Core access machinery
    # ------------------------------------------------------------------

    def _word(self, addr: int) -> int:
        return (addr % self.config.line_size) // self.memory.word_size

    def _access(self, core: int, addr: int, vid: int, kind: AccessKind,
                value: Optional[int], now: int = 0) -> Access:  # hot-path
        # The one home of every load and store, and of their statistics
        # (HMTXSystem calls it directly; load/store are its named forms).
        # Fused L1-hit path: VersionedCache.lookup_slot finds the version
        # (the one implementation of the hit window); the dominant hit
        # shapes then complete here with direct column reads/writes.  The
        # in-place, SLA and Figure 4 entry decisions inlined below are the
        # rules of coherence/protocol.py (pinned by a per-tuple agreement
        # test).  Complex shapes (upgrades, aborts, new versions) hand the
        # found slot to _apply; misses take the fetch path below.
        stats = self.stats
        if kind is READ:
            stats.loads += 1
            if vid > 0:
                stats.spec_loads += 1
        else:
            stats.stores += 1
            if vid > 0:
                stats.spec_stores += 1
        l1 = self.l1s[core]
        mask = l1._offset_mask
        base = addr & ~mask
        slot = l1.lookup_slot(base, vid)
        if slot is not None:
            store = l1._store
            code = store.state[slot]
            if kind is WRITE and code == CODE_SS:
                # Silent shared speculative copies never serve writes;
                # the write must reach the version's owner on the bus.
                slot = None
        hit_latency = l1.hit_latency
        if slot is not None:
            l1.stats.hits += 1
            high_col = store.high_vid
            data_col = store.data
            word = (addr & mask) >> self._word_shift
            if kind is READ:
                if vid == 0:
                    return data_col[slot][word], hit_latency
                if code >= CODE_SM:
                    if code <= CODE_SE and high_col[slot] < vid:
                        high_col[slot] = vid
                        self.sla_loads += 1
                    return data_col[slot][word], hit_latency
                if code == CODE_MODIFIED or code == CODE_EXCLUSIVE:
                    # First speculative read of an exclusive line: enters
                    # S-M/S-E (Figure 4 entry arc) and requires a
                    # retired-load SLA message.
                    l1._retag_slot(
                        slot, CODE_SM if code == CODE_MODIFIED else CODE_SE,
                        0, vid)
                    self.sla_loads += 1
                    return data_col[slot][word], hit_latency
                # OWNED/SHARED need an upgrade: _apply handles it.
            else:
                if vid == 0:
                    if code == CODE_MODIFIED or code == CODE_EXCLUSIVE:
                        if code == CODE_EXCLUSIVE:
                            store.state[slot] = CODE_MODIFIED
                        data_col[slot][word] = value
                        return value, hit_latency
                elif code == CODE_SM or code == CODE_SE:
                    mod = store.mod_vid[slot]
                    high = high_col[slot]
                    if vid == mod and vid >= high:
                        # Same transaction re-writes its own latest
                        # version in place.
                        self._scrub_ss_copies(base, mod)
                        data_col[slot][word] = value
                        if vid > high:
                            high_col[slot] = vid
                        return value, hit_latency
                # Upgrades, conflicts, and copy-creating writes: _apply
                # decides on the found version.
            return self._apply(core, slot, addr, vid, kind, value,
                               hit_latency)
        # Miss (or silent S-S copy on a write): fetch over the bus.
        latency = hit_latency
        l1.stats.misses += 1
        latency += self._bus_transaction(now + latency)
        slot, transfer_latency, _ = self._fetch(
            core, addr, vid, kind, now=now + latency)
        latency += transfer_latency
        return self._apply(core, slot, addr, vid, kind, value, latency)

    def _fetch(self, core: int, addr: int, vid: int,
               kind: AccessKind, now: int = 0) -> Tuple[int, int, str]:
        """Bring a copy that ``vid`` hits into ``core``'s L1.

        Implements the bus snoop: exactly one cache responds with the
        version that would have hit (S-S copies stay silent); otherwise
        memory responds, possibly via the section 5.4 overflow-retrieval
        path.  Returns ``(l1 slot, latency, responder name)``.

        Snoop filter: only caches whose own line index (``_by_base``) holds
        a version of the line are consulted.  A cache with no version of
        the address answers no snoop and undergoes no lazy processing, so
        skipping it is exact.
        """
        self.stats.bus_snoops += 1
        l1 = self.l1s[core]
        base = l1.line_addr(addr)
        latency = self._llc_latency  # bus + LLC lookup window
        # One-way hops from the requester's socket (all 0 when flat).
        hops = self._hops[self._cache_socket[l1.name]]
        home = (base // self.config.line_size) % self._sockets
        spec_modified_asserted = l1.has_latest_spec_version(addr)
        for cache in self._peer_lists[core]:
            if base not in cache._by_base:
                continue
            if cache.has_latest_spec_version(addr):
                spec_modified_asserted = True
            owner = cache.lookup_slot(base, vid)
            if owner is None or cache._store.state[owner] == CODE_SS:
                continue
            self.stats.peer_transfers += 1
            if self.overflow_table is not None \
                    and cache is self.overflow_table:
                latency += cache.hit_latency
                self.overflow_table.refills += 1
            # The line transfer crosses the socket interconnect when the
            # responder lives on another die; the memory-side overflow
            # table sits behind the line's home socket.
            latency += hops[self._cache_socket.get(cache.name, home)]
            slot = self._receive_from_owner(core, cache, owner, vid, kind)
            return slot, latency, cache.name
        # No cache can serve the request: memory responds, reached through
        # the line's home socket's controller.
        latency += self.config.memory_latency + hops[home]
        return (self._fill_from_memory(l1, base, vid, spec_modified_asserted),
                latency, "memory")

    def _fill_from_memory(self, l1: VersionedCache, base: int, vid: int,
                          spec_modified_asserted: bool) -> int:
        """Memory responds to a miss: install the line in ``l1``."""
        self.stats.memory_fetches += 1
        data = self.memory.read_line(base)
        if spec_modified_asserted:
            # Section 5.4: an S-M copy asserted "speculatively modified" but
            # could not serve this VID, so the non-speculative backup must
            # have overflowed to memory.  It returns as S-O(0, reqVID + 1).
            # (Also taken for non-speculative requests: installing a plain
            # E copy while a live S-M exists would shadow the speculative
            # version for later VIDs.)
            self.stats.overflow_retrievals += 1
            eff = l1.effective_vid(vid)
            return self._install(l1, base, CODE_SO, data, 0, eff + 1)
        return self._install(l1, base, CODE_EXCLUSIVE, data, 0, 0)

    def _receive_from_owner(self, core: int, owner_cache: VersionedCache,
                            owner: int, vid: int, kind: AccessKind) -> int:
        """Install a usable copy of slot ``owner``'s version in ``core``'s L1.

        Returns the L1 slot of the installed copy.
        """
        l1 = self.l1s[core]
        eff = l1.effective_vid(vid)
        store = owner_cache._store
        base = store.addr[owner]
        code = store.state[owner]
        mod = store.mod_vid[owner]
        high = store.high_vid[owner]
        data = list(store.data[owner])
        if code < CODE_SM:
            if vid > 0 or kind is WRITE:
                # First speculative touch (or any write) needs exclusive
                # access: every non-speculative copy of the line is
                # invalidated and the line migrates (Figure 4's entry arcs).
                self._invalidate_nonspec_everywhere(base)
                return self._install(
                    l1, base, CODE_MODIFIED if DIRTY_BY_CODE[code]
                    else CODE_EXCLUSIVE, data, 0, 0)
            # Plain non-speculative read sharing: MOESI read hit.
            if code == CODE_MODIFIED:
                owner_cache._retag_slot(owner, CODE_OWNED, mod, high)
            elif code == CODE_EXCLUSIVE:
                owner_cache._retag_slot(owner, CODE_SHARED, mod, high)
            return self._install(l1, base, CODE_SHARED, data, 0, 0)
        if kind is READ:
            # Uncommitted value forwarding across caches: the requester gets
            # a shared speculative copy; the owner keeps tracking the global
            # highVID so later conflicting stores are still caught.
            copy_high = high
            if vid > 0:
                code, mod, high = read_transition_code(code, mod, high, eff)
                owner_cache._retag_slot(owner, code, mod, high)
                # A latest version's copy gets a window capped just above
                # the requesting VID: a strictly later VID's read must reach
                # the owner to be logged there.
                copy_high = eff + 1 if code <= CODE_SE else high
            return self._install(l1, base, CODE_SS, data, mod, copy_high)
        # A write served by a remote speculative version: decide abort /
        # in-place migration / new version here, where both copies are
        # visible.  Non-speculative writes that land on a live speculative
        # version are conservative conflicts (eff = LC_VID < highVID).
        outcome = write_outcome_code(code, mod, high, eff)
        if outcome == WRITE_ABORT or vid == 0:
            self._raise_misspeculation(owner_cache, owner, eff)
        self._scrub_ss_copies(base, mod)
        if outcome == WRITE_IN_PLACE:
            # Same transaction writes from another core: the S-M version
            # migrates wholesale (speculative threads may move between
            # cores, section 5.2).
            owner_cache._remove_slot(owner)
            return self._install(l1, base, code, data, mod,
                                 high if high >= eff else eff)
        backup_code, backup_mod, backup_high, new_code, new_mod, new_high = \
            new_version_code(code, mod, high, eff)
        owner_cache._retag_slot(owner, backup_code, backup_mod, backup_high)
        l1.stats.version_copies += 1
        return self._install(l1, base, new_code, data, new_mod, new_high)

    def _apply(self, core: int, slot: int, addr: int, vid: int,
               kind: AccessKind, value: Optional[int],
               latency: int) -> Access:
        """Apply the access to the version resident in ``core``'s L1 slot."""
        l1 = self.l1s[core]
        store = l1._store
        eff = l1.effective_vid(vid)
        word = self._word(addr)
        base = store.addr[slot]
        code = store.state[slot]
        mod = store.mod_vid[slot]
        high = store.high_vid[slot]
        if kind is READ:
            if vid > 0:
                if code < CODE_SM or high < eff:
                    self.sla_loads += 1
                if code == CODE_OWNED or code == CODE_SHARED:
                    # Entering the speculative world needs exclusive access.
                    code = self._upgrade(l1, slot)
                l1._retag_slot(slot, *read_transition_code(code, mod, high,
                                                           eff))
            return store.data[slot][word], latency
        # Store path.
        assert value is not None
        if vid == 0:
            if code >= CODE_SM:
                # A non-speculative store landing on live speculative state
                # is a conservative conflict.
                self._raise_misspeculation(l1, slot, eff)
            if code == CODE_OWNED or code == CODE_SHARED:
                self._upgrade(l1, slot)
            l1._retag_slot(slot, CODE_MODIFIED, mod, high)
            store.data[slot][word] = value
            return value, latency
        if code == CODE_OWNED or code == CODE_SHARED:
            code = self._upgrade(l1, slot)
        outcome = write_outcome_code(code, mod, high, eff)
        if outcome == WRITE_ABORT:
            self._raise_misspeculation(l1, slot, eff)
        if outcome == WRITE_IN_PLACE:
            self._scrub_ss_copies(base, mod)
            store.data[slot][word] = value
            if eff > high:
                store.high_vid[slot] = eff
            return value, latency
        if code >= CODE_SM:
            self._scrub_ss_copies(base, mod)
        data = list(store.data[slot])
        data[word] = value
        backup_code, backup_mod, backup_high, new_code, new_mod, new_high = \
            new_version_code(code, mod, high, eff)
        l1._retag_slot(slot, backup_code, backup_mod, backup_high)
        l1.stats.version_copies += 1
        self._install(l1, base, new_code, data, new_mod, new_high)
        self.versions_created += 1
        return value, latency

    def _upgrade(self, cache: VersionedCache, slot: int) -> int:
        """Invalidate peer copies so O/S becomes writable M/E.

        Returns the slot's new state code.
        """
        self.stats.bus_snoops += 1
        store = cache._store
        self._invalidate_nonspec_everywhere(store.addr[slot], cache, slot)
        code = (CODE_MODIFIED if store.state[slot] == CODE_OWNED
                else CODE_EXCLUSIVE)
        cache._retag_slot(slot, code, store.mod_vid[slot],
                          store.high_vid[slot])
        return code

    def _invalidate_nonspec_everywhere(
            self, base: int, keep_cache: Optional[VersionedCache] = None,
            keep_slot: int = -1) -> None:  # hot-path
        """Acquire exclusivity: drop every non-speculative copy of ``base``.

        Silent shared speculative copies (``S-S``) are dropped as well —
        they are clean, never respond to snoops, and a stale one whose
        window survived its version's commit would otherwise overlap the
        speculative marking the requester is about to create.  Real
        speculative owners (``S-M``/``S-O``/``S-E``) are never present on
        this path: a live latest version would have served the request
        itself instead of a non-speculative owner.  ``keep_slot`` of
        ``keep_cache`` (the upgrading version) survives.

        Only caches whose line index holds the line are visited; a cache
        with no version of it has nothing to invalidate.
        """
        for cache in self._caches:
            if base in cache._by_base:
                cache.drop_nonspec_copies(
                    base, keep_slot if cache is keep_cache else -1)

    def _scrub_ss_copies(self, base: int, mod_vid: int) -> None:  # hot-path
        """Invalidate all S-S copies of version ``(base, mod_vid)``.

        The speculative analogue of a MOESI upgrade: a write to a version
        must invalidate its silent read-only copies, otherwise they would
        keep serving the version's *pre-write* data.

        Filtered through each cache's line index like every other snoop.
        """
        dropped = False
        for cache in self._caches:
            if base in cache._by_base and cache.drop_ss_copies(base, mod_vid):
                dropped = True
        if dropped:
            self.stats.ss_invalidations += 1
            self.stats.bus_snoops += 1

    def _raise_misspeculation(self, cache: VersionedCache, slot: int,
                              vid: int) -> None:
        store = cache._store
        raise MisspeculationError(
            f"store with VID {vid} conflicts with version "
            f"{CODE_NAMES[store.state[slot]]}"
            f"({store.mod_vid[slot]},{store.high_vid[slot]})",
            vid=vid, addr=store.addr[slot], cause=AbortCause.CONFLICT)

    # ------------------------------------------------------------------
    # Eviction handling
    # ------------------------------------------------------------------

    def _install(self, cache: VersionedCache, base: int, code: int,
                 data: List[int], mod_vid: int, high_vid: int) -> int:
        """Install a version from column values, then apply the eviction
        rules to its victims' column values, in eviction order.

        Returns the cache slot now holding the version.  Every install,
        including an L1 victim's move into its home LLC slice, goes
        through here, so subclasses see each one.
        """
        slot, evicted = cache.install_slot(base, code, data, mod_vid,
                                           high_vid)
        for vcode, addr, vdata, vmod, vhigh in evicted:
            if vcode <= CODE_EXCLUSIVE or vcode == CODE_SS:
                # INVALID fallbacks, clean non-speculative lines and S-S
                # peer copies leave silently at every level.
                continue
            if cache not in self._llc_group:
                # L1 victim: moves down to the line's home LLC slice "as
                # normal" (section 4.1) — the single shared L2 on a flat
                # machine.  Its data list moves with it.
                self._install(self._home_llc(addr), addr, vcode, vdata,
                              vmod, vhigh)
            elif vcode == CODE_MODIFIED or vcode == CODE_OWNED:
                # Last-level cache victim: section 5.4 rules.
                self.memory.write_line(addr, vdata)
            elif vcode == CODE_SO and vmod == 0:
                # The non-speculative backup may overflow to memory; the
                # S-M assertion path of _fetch retrieves it if needed again.
                self.stats.nonspec_overflows += 1
                self.memory.write_line(addr, vdata)
            elif self.overflow_table is not None:
                # Section 8 extension: spill the speculative version into
                # the memory-side table instead of aborting.
                self.stats.spec_overflow_spills += 1
                self.overflow_table.spill(vcode, addr, vdata, vmod, vhigh)
            else:
                raise SpeculativeOverflowError(
                    f"speculative version {CODE_NAMES[vcode]}({vmod},"
                    f"{vhigh}) of 0x{addr:x} evicted past the LLC",
                    vid=vmod, addr=addr, cause=AbortCause.CAPACITY_OVERFLOW)
        return slot
