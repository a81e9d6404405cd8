"""Set-associative, version-aware cache with lazy commit/abort processing.

A :class:`VersionedCache` stores *versions* of cache lines: several
versions with the same address but different ``(modVID, highVID)`` tags may
coexist within one set (section 4.1).  The set index depends only on the
address, so versions compete for the same ways.

Lazy commit/abort (section 5.3): commits and aborts are recorded by setting
the per-cache ``LC_VID`` register and flash-setting the per-line CB/AB bits;
the actual Figure 6/7 transition of a line is applied the next time that
line is touched or chosen as an eviction victim
(:meth:`VersionedCache._process_lazy_slot`).  The replay is written once,
as the pure :meth:`VersionedCache._fold`; pure readers see its result
through :meth:`VersionedCache.resolved` without applying it.

One state representation (DESIGN.md section 13): resident versions live as
slots in a per-cache :class:`~repro.coherence.store.LineStore` — parallel
``bytearray``/``array`` columns for state codes, VIDs, addresses and the
lazy-processing stamps.  The per-set lists and the per-base version
buckets hold plain slot integers; lookups, installs, lazy folds, VID-reset
scrubs and victim selection all run on slot ints and the integer-code
rules of :mod:`repro.coherence.protocol`.  Installs take column values and
eviction victims come back as column values, so a victim's data list
moves down the miss path by reference.  An install is one pass over its
set (:meth:`VersionedCache.install_slot`): the victim is the slot with
the smallest ``class << 62 | lru_tick`` key, and the new version takes
its slot in place.  One object
shape remains, at the edge: the introspection helpers
(:meth:`VersionedCache.lookup`, :meth:`~VersionedCache.versions`,
:meth:`~VersionedCache.all_lines`) hand tests and tools read-only
:class:`~repro.coherence.line.LineView` facades.

Fast-path layer (DESIGN.md, "Fast-path indexing") — pure implementation
optimisations, invisible to the modelled protocol:

* an **event epoch** bumped on every commit/abort/reset broadcast; a line
  stamped with the current epoch provably has no pending lazy events, so
  :meth:`_process_lazy_slot` returns without replaying anything;
* a **per-base version index** (``line address -> [slots]``), so
  :meth:`versions`/:meth:`lookup` touch only the versions of the requested
  line instead of scanning the whole set, and the hierarchy's snoops,
  invalidations and scrubs skip every cache with no entry for the line;
* maintained **snoop-filter counters**: the number of resident speculative
  lines (Figure 9 footprint) and of live ``S-M(modVID>0)`` lines (the
  section 5.4 "speculatively modified" assertion), kept exact through the
  :meth:`_retag_slot` mutation funnel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .line import LineView
from .protocol import (
    abort_transition_code,
    commit_transition_code,
    reset_transition_code,
)
from .states import (
    CODE_INVALID,
    CODE_NAMES,
    CODE_SE,
    CODE_SM,
    CODE_SO,
    CODE_SS,
)
from .store import FREE_CODE, LineStore
from .vid import CascadedComparator


@dataclass
class CacheStats:
    """Per-cache event counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    version_copies: int = 0
    lazy_commits_processed: int = 0
    lazy_aborts_processed: int = 0
    commit_broadcasts: int = 0
    abort_broadcasts: int = 0
    vid_resets: int = 0


# Victim-selection priority classes, lowest value evicted first (section 5.4:
# prioritise overflowable S-O copies over speculative lines whose eviction
# from the LLC would force an abort).
_PRIORITY_INVALID = 0
_PRIORITY_CLEAN_NONSPEC = 1
_PRIORITY_DIRTY_NONSPEC = 2
_PRIORITY_SPEC_SHARED = 3       # S-S: silently droppable peer copies
_PRIORITY_SPEC_OVERFLOWABLE = 4  # S-O with modVID == 0: may go to memory
_PRIORITY_SPEC_PINNED = 5        # eviction past the LLC aborts

#: State code -> victim priority class, in code order I, S, E, O, M, S-M,
#: S-E, S-O, S-S.  S-O with modVID == 0 is the one version whose class
#: also depends on its VIDs; the victim sweep special-cases it to
#: overflowable.
_VICTIM_CLASS_BY_CODE = bytes((
    _PRIORITY_INVALID,
    _PRIORITY_CLEAN_NONSPEC, _PRIORITY_CLEAN_NONSPEC,
    _PRIORITY_DIRTY_NONSPEC, _PRIORITY_DIRTY_NONSPEC,
    _PRIORITY_SPEC_PINNED, _PRIORITY_SPEC_PINNED, _PRIORITY_SPEC_PINNED,
    _PRIORITY_SPEC_SHARED,
))

#: Victim keys: ``class << 62``, so a slot's key ``class << 62 | lru_tick``
#: orders by class, then by LRU tick, in one integer compare.  Ticks are
#: unique per cache and stay below ``1 << 62``, so the order is exactly
#: the ``(class, tick)`` order.
_VICTIM_KEY_BY_CODE = tuple(cls << 62 for cls in _VICTIM_CLASS_BY_CODE)
_OVERFLOWABLE_KEY = _PRIORITY_SPEC_OVERFLOWABLE << 62
#: Above every real key: the sweep's start value.
_NO_VICTIM_KEY = (_PRIORITY_SPEC_PINNED + 1) << 62


#: An evicted version as it travels down the miss path: ``(code, addr,
#: data, modVID, highVID)``.  Its lazy stamps and LRU tick stay behind:
#: the receiving level stamps its own.
Victim = Tuple[int, int, List[int], int, int]


class VersionedCache:
    """One level of HMTX-capable cache (an L1 or the shared L2).

    Parameters
    ----------
    name:
        Human-readable identifier (``"L1[0]"``, ``"L2"``).
    size:
        Capacity in bytes.
    assoc:
        Ways per set.
    line_size:
        Bytes per line.
    hit_latency:
        Cycles charged for a hit at this level.
    vid_bits:
        Width of the VID comparators (for the section 4.5 model).
    """

    def __init__(self, name: str, size: int, assoc: int, line_size: int = 64,
                 hit_latency: int = 2, vid_bits: int = 6) -> None:
        if line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        if size % (assoc * line_size):
            raise ValueError("cache size must be a multiple of assoc * line_size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.num_sets = size // (assoc * line_size)
        self.lc_vid = 0
        self.stats = CacheStats()
        self.comparator = CascadedComparator(bits=vid_bits)
        #: The struct-of-arrays slot arena holding every resident version.
        self._store = LineStore()
        #: Set lists of slot indices, allocated on first touch (a 32 MB L2
        #: has 16 k sets; most runs touch a handful).
        self._sets: Dict[int, List[int]] = {}
        self._tick = 0
        #: LC_VID snapshots at each abort broadcast (lazy abort processing).
        self._abort_history: List[int] = []
        # -- fast-path state ------------------------------------------------
        #: Event epoch: bumped on every commit/abort/reset broadcast.
        self._epoch = 0
        #: Epoch at which each set last had *every* line lazily processed.
        self._set_epochs: Dict[int, int] = {}
        #: line address -> resident version slots, in set-list order.
        self._by_base: Dict[int, List[int]] = {}
        #: Maintained counters backing the snoop filters.
        self._spec_lines = 0
        self._sm_live = 0
        # Precomputed address masks (a set count that is not a power of two
        # falls back to a modulo).
        self._offset_mask = line_size - 1
        self._line_shift = line_size.bit_length() - 1
        self._index_mask = (self.num_sets - 1
                            if self.num_sets & (self.num_sets - 1) == 0
                            else None)

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr & ~self._offset_mask

    def set_index(self, addr: int) -> int:
        """Set index depends only on the address, never on VIDs (4.1)."""
        if self._index_mask is not None:
            return (addr >> self._line_shift) & self._index_mask
        return (addr >> self._line_shift) % self.num_sets

    @staticmethod
    def _first_list(table: Dict[int, List[int]], key: int) -> List[int]:
        """A set's first slot list or a line's first bucket.

        Cold: runs once per set or line the cache first touches, which
        keeps the list allocation out of the install path.
        """
        slots = table[key] = []
        return slots

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def _describe(self, slot: int) -> str:
        """``CacheLine(0x40, S-M(2,5))``-style text for assertion messages."""
        store = self._store
        return (f"CacheLine(0x{store.addr[slot]:x}, "
                f"{CODE_NAMES[store.state[slot]]}"
                f"({store.mod_vid[slot]},{store.high_vid[slot]}))")

    # ------------------------------------------------------------------
    # Index / filter maintenance
    # ------------------------------------------------------------------

    def _retag_slot(self, slot: int, code: int, mod_vid: int,
                    high_vid: int) -> None:  # hot-path
        """Change a slot's state/VIDs, keeping the filter counters exact."""
        store = self._store
        old = store.state[slot]
        old_spec = old >= CODE_SM
        new_spec = code >= CODE_SM
        if old_spec != new_spec:
            self._spec_lines += 1 if new_spec else -1
        old_sm = old == CODE_SM and store.mod_vid[slot] > 0
        new_sm = code == CODE_SM and mod_vid > 0
        if old_sm != new_sm:
            self._sm_live += 1 if new_sm else -1
        store.state[slot] = code
        store.mod_vid[slot] = mod_vid
        store.high_vid[slot] = high_vid

    @property
    def speculative_lines(self) -> int:
        """Resident speculative versions (maintained Figure 9 counter)."""
        return self._spec_lines

    def holds(self, addr: int) -> bool:
        """O(1): does this cache hold any version of ``addr``'s line?"""
        return self.line_addr(addr) in self._by_base

    # ------------------------------------------------------------------
    # Lazy commit/abort processing (section 5.3)
    # ------------------------------------------------------------------

    def _fold(self, slot: int, code: int
              ) -> Tuple[Tuple[int, int, int], int, bool]:  # hot-path
        """Replay a speculative slot's pending events in locals (section 5.3).

        In broadcast order: for each unseen abort, the commits up to the
        pre-abort ``LC_VID`` apply first (Figure 6), then the abort
        (Figure 7); a version the aborts leave non-speculative stops there.
        Otherwise the current ``LC_VID`` commit level applies last.
        ``code`` is the slot's stored state code.

        Pure: returns ``((code, modVID, highVID), aborts replayed, whether
        the final commit changed the tags)`` and changes nothing.  It is
        the only copy of the lazy replay; :meth:`_process_lazy_slot`
        applies it and :meth:`resolved` reads it.
        """
        store = self._store
        tags = code, store.mod_vid[slot], store.high_vid[slot]
        history = self._abort_history
        event = seen = store.seen_aborts[slot]
        pending = len(history)
        while True:
            folded = commit_transition_code(
                *tags, history[event] if event < pending else self.lc_vid)
            if event == pending:
                return folded, pending - seen, folded != tags
            tags = abort_transition_code(*folded)
            event += 1
            if tags[0] < CODE_SM:
                return tags, event - seen, False

    def _process_lazy_slot(self, slot: int) -> Optional[int]:  # hot-path
        """Apply a slot's pending commit/abort transitions (:meth:`_fold`).

        Returns the slot if the version survives, ``None`` if a transition
        invalidated it (in which case it has been unlinked and freed).
        """
        store = self._store
        epoch = self._epoch
        if store.epoch[slot] == epoch:
            return slot
        code = store.state[slot]
        if code >= CODE_SM:
            tags, aborts, committed = self._fold(slot, code)
            if aborts or committed:
                stats = self.stats
                stats.lazy_commits_processed += aborts + committed
                stats.lazy_aborts_processed += aborts
                self._retag_slot(slot, *tags)
                if tags[0] == CODE_INVALID:
                    self._remove_slot(slot)
                    return None
        store.seen_aborts[slot] = len(self._abort_history)
        store.epoch[slot] = epoch
        return slot

    def resolved(self, slot: int) -> Optional[Tuple[int, int, int]]:
        """``(code, modVID, highVID)`` the slot folds to, or ``None`` if it
        folds to INVALID — a pure read that applies nothing.

        Folding is incremental and confluent (resolving now and applying
        later events equals resolving later), so this is exactly what
        :meth:`_process_lazy_slot` would leave in the columns.
        """
        store = self._store
        code = store.state[slot]
        if store.epoch[slot] == self._epoch or code < CODE_SM:
            tags = code, store.mod_vid[slot], store.high_vid[slot]
        else:
            tags = self._fold(slot, code)[0]
        return None if tags[0] == CODE_INVALID else tags

    def _remove_slot(self, slot: int) -> None:
        """Unlink a resident slot from its set, its bucket and the filter
        counters, and free it."""
        store = self._store
        base = store.addr[slot]
        self._sets[self.set_index(base)].remove(slot)
        bucket = self._by_base[base]
        bucket.remove(slot)
        if not bucket:
            del self._by_base[base]
        code = store.state[slot]
        if code >= CODE_SM:
            self._spec_lines -= 1
            if code == CODE_SM and store.mod_vid[slot] > 0:
                self._sm_live -= 1
        store.release(slot)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _process_bucket(self, base: int) -> Optional[List[int]]:  # hot-path
        """Lazily process every version of ``base``; return the survivors.

        Returns the (possibly shrunk) live bucket, or ``None`` when no
        version survives.  Skips the replay entirely when every slot is
        epoch-current — the sweep it skips would be an exact no-op.
        """
        bucket = self._by_base.get(base)
        if not bucket:
            return None
        epochs = self._store.epoch
        epoch = self._epoch
        for slot in bucket:
            if epochs[slot] != epoch:
                break
        else:
            return bucket
        process = self._process_lazy_slot
        # lint-ok: RL006 (epoch-gated fold: once per stale epoch, not per access)
        for slot in list(bucket):
            process(slot)
        bucket = self._by_base.get(base)
        return bucket if bucket else None

    def versions(self, addr: int) -> List[LineView]:
        """All valid versions of ``addr`` present, lazily processed first."""
        bucket = self._process_bucket(self.line_addr(addr))
        if bucket is None:
            return []
        return [LineView(self, slot) for slot in bucket]

    def version_count(self, addr: int) -> int:
        """``len(self.versions(addr))`` as a pure read (:meth:`resolved`)."""
        resolved = self.resolved
        return sum(resolved(slot) is not None
                   for slot in self._by_base.get(self.line_addr(addr), ()))

    def effective_vid(self, req_vid: int) -> int:
        """Non-speculative requests use ``LC_VID`` for hit logic (5.3)."""
        return self.lc_vid if req_vid == 0 else req_vid

    def lookup_slot(self, base: int, req_vid: int) -> Optional[int]:  # hot-path
        """Slot of the unique version a request with ``req_vid`` hits, if any.

        ``base`` must already be the line address; ``req_vid`` is the raw
        request VID (the LC_VID substitution for non-speculative requests
        happens here).  The only implementation of the section 4.1 hit
        window: every access, snoop and directory probe looks up here.
        Pending lazy events are applied first (only when some version of
        the line is stale), the VID comparators' engagements are counted
        exactly as :meth:`CascadedComparator.compare` would count them
        (section 4.5), and the hit gets an LRU touch.
        """
        bucket = self._by_base.get(base)
        if not bucket:
            return None
        store = self._store
        epochs = store.epoch
        epoch = self._epoch
        for slot in bucket:
            if epochs[slot] != epoch:
                bucket = self._process_bucket(base)
                if bucket is None:
                    return None
                break
        state_col = store.state
        hit = -1
        if len(bucket) == 1 and state_col[bucket[0]] < CODE_SM:
            # Dominant case: one non-speculative version.  It hits any
            # VID (unless INVALID) and engages no comparator.
            if state_col[bucket[0]] != CODE_INVALID:
                hit = bucket[0]
        else:
            mod_col = store.mod_vid
            high_col = store.high_vid
            eff = self.lc_vid if req_vid == 0 else req_vid
            comparator = self.comparator
            shift = comparator.low_bits
            fast = 0
            cascaded = 0
            for slot in bucket:
                code = state_col[slot]
                if code >= CODE_SM:
                    mod = mod_col[slot]
                    high = high_col[slot]
                    if (eff >> shift) == (mod >> shift):
                        fast += 1
                    else:
                        cascaded += 1
                    if (eff >> shift) == (high >> shift):
                        fast += 1
                    else:
                        cascaded += 1
                    hits = (eff >= mod if code <= CODE_SE
                            else mod <= eff < high)
                else:
                    hits = code != CODE_INVALID
                if hits:
                    if hit >= 0:
                        raise AssertionError(
                            f"{self.name}: two versions hit VID {eff} at "
                            f"0x{base:x}: {self._describe(hit)} and "
                            f"{self._describe(slot)}")
                    hit = slot
            comparator.fast_comparisons += fast
            comparator.cascaded_comparisons += cascaded
        if hit < 0:
            return None
        self._tick += 1
        store.lru_tick[hit] = self._tick
        return hit

    def lookup(self, addr: int, req_vid: int) -> Optional[LineView]:
        """Return the unique version a request with ``req_vid`` hits, if any."""
        slot = self.lookup_slot(self.line_addr(addr), req_vid)
        if slot is None:
            return None
        return LineView(self, slot)

    def has_latest_spec_version(self, addr: int) -> bool:
        """Is there an ``S-M`` version asserting "speculatively modified"?

        Used for the section 5.4 overflow-retrieval assertion: when an S-M
        copy snoops a request it cannot serve, it asserts that the line was
        speculatively modified, so a memory response must arrive as
        ``S-O(0, reqVID + 1)``.

        Fast path: no transition ever *creates* an ``S-M(modVID>0)`` line
        out of another state, so when the maintained count of such lines is
        zero and every resident version of the address is epoch-current
        (i.e. lazy processing would be a no-op), the answer is False without
        touching any line.
        """
        base = self.line_addr(addr)
        bucket = self._by_base.get(base)
        if not bucket:
            return False
        store = self._store
        if self._sm_live == 0:
            epochs = store.epoch
            epoch = self._epoch
            for slot in bucket:
                if epochs[slot] != epoch:
                    break
            else:
                return False
        bucket = self._process_bucket(base)
        if bucket is None:
            return False
        state_col = store.state
        mod_col = store.mod_vid
        for slot in bucket:
            if state_col[slot] == CODE_SM and mod_col[slot] > 0:
                return True
        return False

    # ------------------------------------------------------------------
    # Installation and eviction
    # ------------------------------------------------------------------

    def install_slot(self, base: int, code: int, data: List[int],
                     mod_vid: int, high_vid: int
                     ) -> Tuple[int, Tuple[Victim, ...]]:  # hot-path
        """Insert a version from its column values, evicting as needed.

        An existing version with the same ``(addr, modVID)`` is replaced
        (it is the same conceptual version, e.g. a stale shared copy).
        ``data`` is taken by reference.  Returns the new slot and the
        evicted versions as ``(code, addr, data, modVID, highVID)`` column
        tuples (usually none or one); each victim's data list moves out by
        reference.  The hierarchy decides whether they are written back,
        passed down a level, overflowed to memory, or force an abort
        (section 5.4).

        One pass over the set: the victim is chosen, unlinked and counted
        out of the filter counters here, and the new version takes the
        last victim's slot in place — the slot a release followed by an
        allocation would hand back from the LIFO free list.  The set list
        and the buckets still drop the victim and append the new slot, so
        their order is that of a separate release and allocation.
        """
        store = self._store
        state_col = store.state
        mod_col = store.mod_vid
        by_base = self._by_base
        bucket = by_base.get(base)
        if bucket:
            spec = code >= CODE_SM
            i = 0
            while i < len(bucket):
                slot = bucket[i]
                if mod_col[slot] == mod_vid \
                        and (state_col[slot] >= CODE_SM) == spec:
                    self._remove_slot(slot)  # shrinks bucket at i
                else:
                    i += 1
        mask = self._index_mask
        index = ((base >> self._line_shift) & mask if mask is not None
                 else self.set_index(base))
        slots = self._sets.get(index)
        if slots is None:
            slots = self._first_list(self._sets, index)
        epoch = self._epoch
        if self._set_epochs.get(index) != epoch:
            # Resolve pending lazy transitions first: committed/aborted
            # versions may free slots without any real eviction.  Skipped
            # when the whole set is epoch-current — the replay would be a
            # no-op for every line.
            process = self._process_lazy_slot
            i = 0
            while i < len(slots):
                if process(slots[i]) is not None:
                    i += 1      # else it left slots at i
            self._set_epochs[index] = epoch
        evicted: Tuple[Victim, ...] = ()
        slot = -1
        spare = None
        assoc = self.assoc
        while len(slots) >= assoc:
            if slot >= 0:
                # Only a set filled past its ways (``_inject_line``) gives
                # up more than one victim; all but the last are freed.
                store.release(slot)
            # LRU within the lowest occupied priority class (section 5.4),
            # as one integer key per slot.  INVALID slots are skipped;
            # a set of nothing else gives up its first slot.
            lru_col = store.lru_tick
            keys = _VICTIM_KEY_BY_CODE
            victim = slots[0]
            best = _NO_VICTIM_KEY
            for candidate in slots:
                cand_code = state_col[candidate]
                if cand_code == CODE_INVALID:
                    continue
                if cand_code == CODE_SO and mod_col[candidate] == 0:
                    key = _OVERFLOWABLE_KEY | lru_col[candidate]
                else:
                    key = keys[cand_code] | lru_col[candidate]
                if key < best:
                    best = key
                    victim = candidate
            slots.remove(victim)
            victim_addr = store.addr[victim]
            victim_bucket = by_base[victim_addr]
            victim_bucket.remove(victim)
            if not victim_bucket:
                del by_base[victim_addr]
                spare = victim_bucket
            victim_code = store.state[victim]
            victim_mod = mod_col[victim]
            if victim_code != CODE_INVALID:
                # An INVALID fallback victim never really left the
                # hierarchy; counting it would pollute the Table 1 /
                # ablation eviction numbers.
                self.stats.evictions += 1
                if victim_code >= CODE_SM:
                    self._spec_lines -= 1
                    if victim_code == CODE_SM and victim_mod > 0:
                        self._sm_live -= 1
            evicted += ((victim_code, victim_addr, store.data[victim],
                         victim_mod, store.high_vid[victim]),)
            slot = victim
        if slot < 0:
            slot = store.alloc(base, code, data, mod_vid, high_vid)
        else:
            state_col[slot] = code
            mod_col[slot] = mod_vid
            store.high_vid[slot] = high_vid
            store.addr[slot] = base
            store.data[slot] = data
        # A freshly installed line has no pending events in *this* cache.
        store.seen_aborts[slot] = len(self._abort_history)
        store.epoch[slot] = epoch
        slots.append(slot)
        bucket = by_base.get(base)
        if bucket is None:
            if spare is None:
                bucket = self._first_list(by_base, base)
            else:
                # The last victim's emptied bucket serves the new line.
                bucket = by_base[base] = spare
        bucket.append(slot)
        if code >= CODE_SM:
            self._spec_lines += 1
            if code == CODE_SM and mod_vid > 0:
                self._sm_live += 1
        self._tick += 1
        store.lru_tick[slot] = self._tick
        return slot, evicted

    def drop(self, line: LineView) -> None:
        """Remove a viewed version without writeback (silent invalidation)."""
        if line.cache is self:
            self._remove_slot(line.slot)

    def drop_nonspec_copies(self, base: int,
                            keep_slot: int = -1) -> None:  # hot-path
        """Exclusivity sweep: drop every non-speculative and ``S-S`` copy
        of ``base`` except ``keep_slot``, after lazily processing them."""
        bucket = self._process_bucket(base)
        if bucket is None:
            return
        state_col = self._store.state
        for slot in list(bucket):  # lint-ok: RL006 (snapshot: bucket shrinks underneath)
            if slot == keep_slot:
                continue
            code = state_col[slot]
            if code >= CODE_SM and code != CODE_SS:
                continue
            self._remove_slot(slot)

    def drop_ss_copies(self, base: int, mod_vid: int) -> bool:  # hot-path
        """Scrub sweep: drop the ``S-S`` copies of version ``(base,
        mod_vid)``; True when any was dropped."""
        bucket = self._process_bucket(base)
        if bucket is None:
            return False
        store = self._store
        state_col = store.state
        mod_col = store.mod_vid
        dropped = False
        for slot in list(bucket):  # lint-ok: RL006 (snapshot: bucket shrinks underneath)
            if state_col[slot] == CODE_SS and mod_col[slot] == mod_vid:
                self._remove_slot(slot)
                dropped = True
        return dropped

    def resident_slots(self) -> Iterator[int]:
        """Every resident slot, set by set (safe to remove while iterating)."""
        for slots in self._sets.values():
            yield from list(slots)

    def all_lines(self) -> Iterator[LineView]:
        for slot in self.resident_slots():
            yield LineView(self, slot)

    def occupancy(self) -> int:
        """Number of valid versions currently resident."""
        return sum(len(slots) for slots in self._sets.values())

    # ------------------------------------------------------------------
    # Broadcast operations (sections 4.4, 4.6, 5.3)
    # ------------------------------------------------------------------

    def broadcast_commit(self, vid: int) -> None:
        """Record a commit: bump ``LC_VID``.  O(1).

        No per-line VID comparison or state transition happens here — that
        is the entire point of the lazy scheme.  (The paper flash-sets a CB
        bit column; commit idempotence makes even that unnecessary in the
        simulator — see :meth:`_process_lazy_slot`.)
        """
        self.lc_vid = vid
        self._epoch += 1
        self.stats.commit_broadcasts += 1

    def broadcast_abort(self) -> None:
        """Record an abort: append to the abort history.  O(1).

        The history entry snapshots the ``LC_VID`` in force when the abort
        arrived, so lazy processing can order each line's pending commit
        transitions before the abort — the exact-ordering refinement of the
        paper's AB-bit scheme (see DESIGN.md).
        """
        self.stats.abort_broadcasts += 1
        self._epoch += 1
        self._abort_history.append(self.lc_vid)

    def vid_reset(self) -> None:  # hot-path
        """Apply the section 4.6 VID reset to this cache.

        Pending lazy transitions are resolved, then every surviving
        speculative line is scrubbed in one batched sweep over the state
        columns: latest versions become plain M/E ("this essentially
        commits them") and superseded copies die.  ``LC_VID`` returns to 0.
        """
        self.stats.vid_resets += 1
        self._epoch += 1
        store = self._store
        state_col = store.state
        mod_col = store.mod_vid
        high_col = store.high_vid
        seen_col = store.seen_aborts
        process = self._process_lazy_slot
        retag = self._retag_slot
        # lint-ok: RL006 (whole-cache scrub: once per VID reset, not per access)
        for slots in list(self._sets.values()):  # lint-ok: RL006 (same)
            for slot in list(slots):
                if process(slot) is None:
                    continue
                code, mod, high = reset_transition_code(
                    state_col[slot], mod_col[slot], high_col[slot])
                retag(slot, code, mod, high)
                seen_col[slot] = 0
                if code == CODE_INVALID:
                    self._remove_slot(slot)
        self._abort_history.clear()
        self.lc_vid = 0

    # ------------------------------------------------------------------
    # Debug support
    # ------------------------------------------------------------------

    def _inject_line(self, base: int, code: int, data: List[int],
                     mod_vid: int = 0, high_vid: int = 0,
                     epoch: int = -1) -> LineView:
        """Test hook: force a raw resident version in from column values.

        Bypasses replacement, eviction and lazy processing — used to
        fabricate states the protocol itself would never produce.  The
        slot has seen no aborts and LRU tick 0; ``epoch`` -1 (the
        default) leaves it stale, so its first touch folds every event.
        """
        store = self._store
        slot = store.alloc(base, CODE_INVALID, data, 0, 0)
        # Retagging from INVALID counts the version into the filters.
        self._retag_slot(slot, code, mod_vid, high_vid)
        store.seen_aborts[slot] = 0
        store.epoch[slot] = epoch
        store.lru_tick[slot] = 0
        self._sets.setdefault(self.set_index(base), []).append(slot)
        self._by_base.setdefault(base, []).append(slot)
        return LineView(self, slot)

    def check_index_integrity(self) -> None:
        """Assert the fast-path index and counters match the set lists."""
        store = self._store
        by_base: Dict[int, List[int]] = {}
        spec = sm = 0
        for slots in self._sets.values():
            for slot in slots:
                code = store.state[slot]
                assert code != FREE_CODE, (
                    f"{self.name}: freed slot {slot} still linked in a set")
                by_base.setdefault(store.addr[slot], []).append(slot)
                if code >= CODE_SM:
                    spec += 1
                    if code == CODE_SM and store.mod_vid[slot] > 0:
                        sm += 1
        recorded = {base: list(bucket) for base, bucket in self._by_base.items()}
        assert by_base == recorded, f"{self.name}: per-base index diverged"
        assert spec == self._spec_lines, (
            f"{self.name}: speculative-line counter {self._spec_lines} != {spec}")
        assert sm == self._sm_live, (
            f"{self.name}: S-M filter counter {self._sm_live} != {sm}")
