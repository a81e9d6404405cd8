"""The pre-rewrite object-per-line cache, kept as a differential oracle.

This is the seed's ``repro.coherence.cache.VersionedCache`` (commit
53c92f4, before the struct-of-arrays line store of DESIGN.md section 13)
with only mechanical changes: absolute imports, the class renamed to
:class:`LegacyVersionedCache`, ``CacheStats`` imported from the live
module instead of duplicated (sharing the dataclass makes ``stats``
directly comparable), and the ``State``-typed rules and ``CacheLine``
record taken from the test-side :mod:`.state_rules` adapters and
:mod:`.legacy_line`, since the simulator works on state codes and slot
columns.

It exists so ``test_store_differential.py`` can drive the old object model
and the new slot arena through identical operation sequences and assert
bit-identical observable behaviour.  It is a test fixture, not production
code — do not import it from ``src/``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.coherence.cache import CacheStats
from repro.coherence.states import State
from repro.coherence.vid import CascadedComparator

from .legacy_line import CacheLine
from .state_rules import (
    abort_transition,
    commit_transition,
    reset_transition,
    version_hits,
    victim_priority,
)


class LegacyVersionedCache:
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
        #: Set lists, allocated on first touch (a 32 MB L2 has 16 k sets;
        #: most runs touch a handful).
        self._sets: Dict[int, List[CacheLine]] = {}
        self._tick = 0
        #: LC_VID snapshots at each abort broadcast (lazy abort processing).
        self._abort_history: List[int] = []
        # -- fast-path state ------------------------------------------------
        #: Event epoch: bumped on every commit/abort/reset broadcast.
        self._epoch = 0
        #: Epoch at which each set last had *every* line lazily processed.
        self._set_epochs: Dict[int, int] = {}
        #: line address -> resident versions, in set-list (insertion) order.
        self._by_base: Dict[int, List[CacheLine]] = {}
        #: Maintained counters backing the snoop filters.
        self._spec_lines = 0
        self._sm_live = 0
        #: Hierarchy hook: called ``(cache, base, present)`` when this cache
        #: gains its first / loses its last version of a line address.
        self.presence_listener: Optional[Callable] = None
        # Precomputed address masks (power-of-two geometry is the norm;
        # anything else falls back to div/mod).
        if line_size & (line_size - 1) == 0:
            self._offset_mask = line_size - 1
            self._line_shift = line_size.bit_length() - 1
        else:
            self._offset_mask = None
            self._line_shift = None
        self._index_mask = (self.num_sets - 1
                            if self.num_sets & (self.num_sets - 1) == 0
                            else None)

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        mask = self._offset_mask
        if mask is not None:
            return addr & ~mask
        return addr - (addr % self.line_size)

    def set_index(self, addr: int) -> int:
        """Set index depends only on the address, never on VIDs (4.1)."""
        if self._offset_mask is not None and self._index_mask is not None:
            return (addr >> self._line_shift) & self._index_mask
        return (self.line_addr(addr) // self.line_size) % self.num_sets

    def _touch(self, line: CacheLine) -> None:
        self._tick += 1
        line.lru_tick = self._tick

    def _set_list(self, index: int) -> List[CacheLine]:
        lines = self._sets.get(index)
        if lines is None:
            lines = self._sets[index] = []
        return lines

    # ------------------------------------------------------------------
    # Index / filter maintenance
    # ------------------------------------------------------------------

    def _index_add(self, line: CacheLine) -> None:
        """Enter a line into the per-base index and filter counters."""
        bucket = self._by_base.get(line.addr)
        if bucket is None:
            bucket = self._by_base[line.addr] = []
            if self.presence_listener is not None:
                self.presence_listener(self, line.addr, True)
        bucket.append(line)
        line.cache = self
        state = line.state
        if state.speculative:
            self._spec_lines += 1
            if state is State.SM and line.mod_vid > 0:
                self._sm_live += 1

    def _index_remove(self, line: CacheLine) -> None:
        """Drop a line from the per-base index and filter counters."""
        bucket = self._by_base[line.addr]
        bucket.remove(line)
        if not bucket:
            del self._by_base[line.addr]
            if self.presence_listener is not None:
                self.presence_listener(self, line.addr, False)
        line.cache = None
        state = line.state
        if state.speculative:
            self._spec_lines -= 1
            if state is State.SM and line.mod_vid > 0:
                self._sm_live -= 1

    def _on_retag(self, line: CacheLine, state: State, mod_vid: int) -> None:
        """Adjust filter counters for an in-place tag change (line.retag)."""
        old = line.state
        if old.speculative != state.speculative:
            self._spec_lines += 1 if state.speculative else -1
        old_sm = old is State.SM and line.mod_vid > 0
        new_sm = state is State.SM and mod_vid > 0
        if old_sm != new_sm:
            self._sm_live += 1 if new_sm else -1

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

    def process_lazy(self, line: CacheLine) -> Optional[CacheLine]:
        """Resolve a line's pending commit/abort transitions (section 5.3).

        Replays, in broadcast order, every event the line has not yet
        processed: for each unseen abort, the commits up to the pre-abort
        ``LC_VID`` apply first (Figure 6), then the abort (Figure 7);
        finally the current ``LC_VID`` commit level applies.  Commit
        processing needs no per-line pending bit because
        :func:`~repro.coherence.protocol.commit_transition` is idempotent —
        re-applying the current commit level to an up-to-date line is a
        no-op.

        Fast path: a line stamped with the cache's current event epoch was
        fully processed after the last broadcast, so the whole replay would
        be a no-op and is skipped (no counter can differ — idempotent
        commits bump no statistic, and ``seen_aborts`` is already current).

        Returns the line if it is still valid afterwards, or ``None`` if a
        transition invalidated it (in which case it has been removed from
        its set).
        """
        epoch = self._epoch
        if line.epoch == epoch:
            return line
        if not line.state.speculative:
            line.seen_aborts = len(self._abort_history)
            line.epoch = epoch
            return line
        history = self._abort_history
        while line.seen_aborts < len(history):
            lc_at_abort = history[line.seen_aborts]
            line.seen_aborts += 1
            state, (mod, high) = commit_transition(
                line.state, line.mod_vid, line.high_vid, lc_at_abort)
            self.stats.lazy_commits_processed += 1
            state, (mod, high) = abort_transition(state, mod, high)
            self.stats.lazy_aborts_processed += 1
            line.retag(state, mod, high)
            if state is State.INVALID:
                self._remove(line)
                return None
            if not state.speculative:
                line.seen_aborts = len(history)
                line.epoch = epoch
                return line
        state, (mod, high) = commit_transition(
            line.state, line.mod_vid, line.high_vid, self.lc_vid)
        if state is not line.state or mod != line.mod_vid or high != line.high_vid:
            self.stats.lazy_commits_processed += 1
            line.retag(state, mod, high)
        if state is State.INVALID:
            self._remove(line)
            return None
        line.epoch = epoch
        return line

    def _remove(self, line: CacheLine) -> None:
        if line.cache is not self:
            return
        self._set_list(self.set_index(line.addr)).remove(line)
        self._index_remove(line)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def versions(self, addr: int) -> List[CacheLine]:
        """All valid versions of ``addr`` present, lazily processed first."""
        bucket = self._by_base.get(self.line_addr(addr))
        if not bucket:
            return []
        epoch = self._epoch
        for line in bucket:
            if line.epoch != epoch:
                break
        else:
            # Every version already processed since the last broadcast:
            # no replay, no removal possible.
            return bucket[:]
        out = []
        for line in list(bucket):
            processed = self.process_lazy(line)
            if processed is not None:
                out.append(processed)
        return out

    def effective_vid(self, req_vid: int) -> int:
        """Non-speculative requests use ``LC_VID`` for hit logic (5.3)."""
        return self.lc_vid if req_vid == 0 else req_vid

    def lookup(self, addr: int, req_vid: int) -> Optional[CacheLine]:
        """Return the unique version a request with ``req_vid`` hits, if any.

        ``req_vid`` is the raw request VID; the LC_VID substitution for
        non-speculative requests happens here.
        """
        bucket = self._by_base.get(self.line_addr(addr))
        if not bucket:
            return None
        if len(bucket) == 1:
            line = bucket[0]
            # Dominant case: one resident non-speculative, fully-processed
            # version.  It hits any VID, engages no comparator, and cannot
            # collide with a second hit — skip the generic scan.
            if line.epoch == self._epoch and not line.state.speculative:
                self._tick += 1
                line.lru_tick = self._tick
                return line
        eff = self.lc_vid if req_vid == 0 else req_vid
        hit = None
        comparator = self.comparator
        for line in self.versions(addr):
            if line.state.speculative:
                # Model the tag-check energy of the VID comparators (4.5).
                comparator.compare(eff, line.mod_vid)
                comparator.compare(eff, line.high_vid)
            if version_hits(line.state, line.mod_vid, line.high_vid, eff):
                if hit is not None:
                    raise AssertionError(
                        f"{self.name}: two versions hit VID {eff} at "
                        f"0x{addr:x}: {hit} and {line}"
                    )
                hit = line
        if hit is not None:
            self._touch(hit)
        return hit

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
        bucket = self._by_base.get(self.line_addr(addr))
        if not bucket:
            return False
        if self._sm_live == 0:
            epoch = self._epoch
            for line in bucket:
                if line.epoch != epoch:
                    break
            else:
                return False
        return any(
            line.state is State.SM and line.mod_vid > 0
            for line in self.versions(addr)
        )

    # ------------------------------------------------------------------
    # Installation and eviction
    # ------------------------------------------------------------------

    def install(self, line: CacheLine) -> List[CacheLine]:
        """Insert a version, evicting as needed.

        An existing version with the same ``(addr, modVID)`` is replaced
        (it is the same conceptual version, e.g. a stale shared copy).
        Returns the evicted lines; the hierarchy decides whether they are
        written back, passed down a level, overflowed to memory, or force
        an abort (section 5.4).
        """
        spec = line.state.speculative
        for existing in list(self._by_base.get(line.addr, ())):
            if existing.mod_vid == line.mod_vid \
                    and existing.state.speculative == spec:
                self._remove(existing)
        index = self.set_index(line.addr)
        lines = self._set_list(index)
        evicted: List[CacheLine] = []
        epoch = self._epoch
        while True:
            # Resolve pending lazy transitions first: committed/aborted
            # versions may free slots without any real eviction.  Skipped
            # when the whole set is epoch-current — the replay would be a
            # no-op for every line.
            if self._set_epochs.get(index) != epoch:
                for candidate in list(lines):
                    self.process_lazy(candidate)
                self._set_epochs[index] = epoch
            if len(lines) < self.assoc:
                break
            victim = self._choose_victim(lines)
            lines.remove(victim)
            self._index_remove(victim)
            evicted.append(victim)
            if victim.state is not State.INVALID:
                # An INVALID fallback victim never really left the
                # hierarchy; counting it would pollute the Table 1 /
                # ablation eviction numbers.
                self.stats.evictions += 1
        # A freshly installed line has no pending events in *this* cache.
        line.seen_aborts = len(self._abort_history)
        line.epoch = epoch
        lines.append(line)
        self._index_add(line)
        self._touch(line)
        return evicted

    def _choose_victim(self, lines: List[CacheLine]) -> CacheLine:
        """LRU within the lowest occupied priority class (section 5.4).

        Callers have already lazily processed every line in the set.
        """
        live = [line for line in lines if line.state is not State.INVALID]
        if not live:
            return lines[0]
        return min(live, key=lambda l: (victim_priority(l), l.lru_tick))

    def drop(self, line: CacheLine) -> None:
        """Remove a version without writeback (silent invalidation)."""
        self._remove(line)

    def all_lines(self) -> Iterable[CacheLine]:
        for lines in self._sets.values():
            yield from list(lines)

    def occupancy(self) -> int:
        """Number of valid versions currently resident."""
        return sum(len(lines) for lines in self._sets.values())

    # ------------------------------------------------------------------
    # Broadcast operations (sections 4.4, 4.6, 5.3)
    # ------------------------------------------------------------------

    def broadcast_commit(self, vid: int) -> None:
        """Record a commit: bump ``LC_VID``.  O(1).

        No per-line VID comparison or state transition happens here — that
        is the entire point of the lazy scheme.  (The paper flash-sets a CB
        bit column; commit idempotence makes even that unnecessary in the
        simulator — see :meth:`process_lazy`.)
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

    def vid_reset(self) -> None:
        """Apply the section 4.6 VID reset to this cache.

        Pending lazy transitions are resolved, then every surviving
        speculative line is scrubbed: latest versions become plain M/E
        ("this essentially commits them") and superseded copies die.
        ``LC_VID`` returns to 0.
        """
        self.stats.vid_resets += 1
        self._epoch += 1
        for line in self.all_lines():
            processed = self.process_lazy(line)
            if processed is None:
                continue
            new_state, (mod, high) = reset_transition(
                processed.state, processed.mod_vid, processed.high_vid)
            processed.retag(new_state, mod, high)
            processed.seen_aborts = 0
            if processed.state is State.INVALID:
                self._remove(processed)
        self._abort_history.clear()
        self.lc_vid = 0

    # ------------------------------------------------------------------
    # Debug support
    # ------------------------------------------------------------------

    def check_index_integrity(self) -> None:
        """Assert the fast-path index and counters match the set lists."""
        by_base: Dict[int, List[CacheLine]] = {}
        spec = sm = 0
        for lines in self._sets.values():
            for line in lines:
                by_base.setdefault(line.addr, []).append(line)
                assert line.cache is self, f"{line!r} lost its owner backref"
                if line.state.speculative:
                    spec += 1
                    if line.state is State.SM and line.mod_vid > 0:
                        sm += 1
        recorded = {base: list(bucket) for base, bucket in self._by_base.items()}
        assert by_base == recorded, f"{self.name}: per-base index diverged"
        assert spec == self._spec_lines, (
            f"{self.name}: speculative-line counter {self._spec_lines} != {spec}")
        assert sm == self._sm_live, (
            f"{self.name}: S-M filter counter {self._sm_live} != {sm}")

