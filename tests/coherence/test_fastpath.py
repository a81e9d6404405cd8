"""Unit tests for the fast-path layer (DESIGN.md, "Fast-path indexing").

The golden equivalence suite (tests/integration/test_fastpath_golden.py)
proves end-to-end bit-identity with the seed simulator; these tests pin the
individual mechanisms — epoch gating, the per-base version index, the
maintained filter counters, the snoop filter over each cache's line index —
and the two statistics bug fixes that rode along (INVALID eviction victims,
wrong-path mark pruning).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.cache import VersionedCache
from repro.coherence.hierarchy import MemoryHierarchy
from repro.coherence.states import CODE_INVALID, CODE_MODIFIED, State
from repro.core import HMTXSystem, MachineConfig
from repro.errors import MisspeculationError

from .legacy_line import CacheLine
from .state_rules import inject, install

TINY = dict(num_cores=2, l1_size=512, l1_assoc=2, l2_size=2048, l2_assoc=4)


def make_cache(assoc=2, sets=4):
    return VersionedCache("C", size=assoc * sets * 64, assoc=assoc)


def line(addr, state, mod=0, high=0, data=None):
    return CacheLine(addr, state, data if data is not None else [0] * 8,
                     mod, high)


class TestEpochGating:
    def test_fresh_line_processes_once_then_skips(self):
        cache = make_cache()
        install(cache, line(0x40, State.SM, 2, 2))
        resident = cache.versions(0x40)[0]
        assert resident.epoch == cache._epoch
        before = cache.stats.lazy_commits_processed
        # No broadcast since: repeated touches replay nothing.
        for _ in range(5):
            cache.lookup(0x40, 3)
        assert cache.stats.lazy_commits_processed == before

    def test_broadcast_bumps_epoch_and_forces_processing(self):
        cache = make_cache()
        install(cache, line(0x40, State.SM, 2, 5))
        resident = cache.versions(0x40)[0]
        cache.broadcast_commit(2)
        assert resident.epoch != cache._epoch
        # Next touch applies the commit (modVID 2 drops to 0) lazily.
        hit = cache.lookup(0x40, 3)
        assert hit.mod_vid == 0
        assert hit.epoch == cache._epoch
        assert cache.stats.lazy_commits_processed >= 1

    def test_abort_replay_still_exact_under_gating(self):
        cache = make_cache()
        install(cache, line(0x40, State.SM, 2, 2))
        cache.broadcast_abort()
        # modVID > 0 at abort time: the version dies at next touch.
        assert cache.versions(0x40) == []
        cache.check_index_integrity()


class TestVersionIndex:
    def test_holds_tracks_presence(self):
        cache = make_cache()
        assert not cache.holds(0x44)
        install(cache, line(0x40, State.EXCLUSIVE))
        assert cache.holds(0x44)          # any address within the line
        cache.drop(cache.versions(0x40)[0])
        assert not cache.holds(0x40)

    def test_index_survives_replacement_and_eviction(self):
        cache = make_cache(assoc=2, sets=1)
        install(cache, line(0x00, State.EXCLUSIVE))
        install(cache, line(0x40, State.EXCLUSIVE))
        install(cache, line(0x80, State.EXCLUSIVE))   # evicts the LRU line
        cache.check_index_integrity()
        assert cache.occupancy() == 2

    def test_speculative_counter_follows_retags(self):
        cache = make_cache()
        install(cache, line(0x40, State.SM, 2, 2))
        assert cache.speculative_lines == 1
        resident = cache.versions(0x40)[0]
        cache._retag_slot(resident.slot, CODE_MODIFIED, 0, 0)
        assert cache.speculative_lines == 0
        cache.check_index_integrity()

    def test_detached_line_retag_is_safe(self):
        free = line(0x40, State.SM, 1, 1)
        free.set_vids(1, 4)               # no owning cache: plain assignment
        assert free.vids == (1, 4)


class TestSmFilter:
    def test_has_latest_after_commit_is_lazy_but_exact(self):
        cache = make_cache()
        install(cache, line(0x40, State.SM, 2, 2))
        assert cache.has_latest_spec_version(0x40)
        assert cache._sm_live == 1
        cache.broadcast_commit(2)
        # The S-M(2,2) version commits to M lazily; the assertion must drop.
        assert not cache.has_latest_spec_version(0x40)
        assert cache._sm_live == 0
        cache.check_index_integrity()

    def test_zero_filter_shortcuts_only_when_epoch_current(self):
        cache = make_cache()
        install(cache, line(0x40, State.SO, 0, 9))
        assert cache._sm_live == 0
        assert not cache.has_latest_spec_version(0x40)


class TestEvictionStats:
    def test_invalid_fallback_victim_not_counted(self):
        cache = make_cache(assoc=1, sets=1)
        inject(cache, line(0x40, State.INVALID))
        _, vcode, *_ = cache.install_slot(0x80, State.EXCLUSIVE.code,
                                          [0] * 8, 0, 0)
        assert vcode == CODE_INVALID
        assert cache.version_count(0x40) == 0
        assert cache.stats.evictions == 0

    def test_real_victims_still_counted(self):
        cache = make_cache(assoc=1, sets=1)
        install(cache, line(0x40, State.EXCLUSIVE))
        install(cache, line(0x80, State.EXCLUSIVE))
        assert cache.stats.evictions == 1


class TestVictimPath:
    """Victims travel down the miss path as column values."""

    def test_l1_victim_data_moves_to_the_llc_by_reference(self):
        h = MemoryHierarchy(MachineConfig(**TINY))
        h.store(0, 0x100, 0, 7)
        l1 = h.l1s[0]
        words = l1.lookup(0x100, 0).data
        h.store(0, 0x200, 0, 8)            # same L1 set: 0x100 is the
        h.store(0, 0x300, 0, 9)            # LRU dirty line
        assert not l1.holds(0x100)
        (moved,) = h.llc_slices[0].versions(0x100)
        assert moved.state is State.MODIFIED
        assert moved.data is words and words[0] == 7
        h.check_invariants()

    def test_dirty_llc_victims_are_written_back(self):
        h = MemoryHierarchy(MachineConfig(**TINY))
        addrs = range(0x100, 0x100 + 8 * 0x200, 0x200)  # one L1 and L2 set
        for i, addr in enumerate(addrs):
            h.store(0, addr, 0, i + 1)
        assert h.memory.writebacks > 0
        assert h.memory.read_word(0x100) == 1
        assert [h.read_committed(a) for a in addrs] == list(range(1, 9))
        h.check_invariants()


class _ClaimsEveryLine(dict):
    """A line index whose membership test says yes for every line, so the
    hierarchy's snoop filters let every cache through (lookups still read
    the real buckets)."""

    def __contains__(self, base):
        return True


#: Four lines in the one set of each tiny cache below, so installs evict.
FILTER_LINES = [0x1000 + i * 64 for i in range(4)]


@st.composite
def _filter_ops(draw):
    """Random loads/stores (unaligned too) with in-order commits and
    aborts woven in, over a few lines and VIDs."""
    ops = []
    committed = 0
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        kind = draw(st.sampled_from(
            ("load", "load", "store", "store", "commit", "abort")))
        if kind == "commit":
            committed += 1
            ops.append(("commit", committed))
        elif kind == "abort":
            ops.append(("abort",))
        else:
            addr = draw(st.sampled_from(FILTER_LINES)) \
                + 8 * draw(st.integers(min_value=0, max_value=7))
            vid = draw(st.sampled_from((0, committed + 1, committed + 2,
                                        committed + 3)))
            ops.append((kind, draw(st.integers(min_value=0, max_value=2)),
                        addr, vid, draw(st.integers(1, 99))))
    return ops


def _run_filter_ops(hierarchy, ops):
    """Execute ``ops``; returns each access's (value, latency) or the
    abort it raised."""
    observed = []
    for now, op in enumerate(ops):
        if op[0] == "commit":
            observed.append(hierarchy.commit(op[1]))
        elif op[0] == "abort":
            observed.append(hierarchy.abort())
        else:
            kind, core, addr, vid, value = op
            try:
                if kind == "load":
                    observed.append(hierarchy.load(core, addr, vid, 5 * now))
                else:
                    observed.append(
                        hierarchy.store(core, addr, vid, value, 5 * now))
            except MisspeculationError as error:
                observed.append((type(error).__name__, str(error)))
                hierarchy.abort()
    return observed


class TestSnoopFilter:
    @pytest.mark.parametrize("unbounded", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(ops=_filter_ops())
    def test_filter_matches_unfiltered_snoops(self, unbounded, ops):
        # Skipping a cache whose line index lacks the line is exact: the
        # filtered machine equals one whose snoops, invalidations and
        # scrubs visit every cache.
        config = MachineConfig(num_cores=3, l1_size=2 * 64, l1_assoc=2,
                               l2_size=4 * 64, l2_assoc=4,
                               unbounded_sets=unbounded)
        real = MemoryHierarchy(config)
        reference = MemoryHierarchy(config)
        for cache in reference._caches:
            cache._by_base = _ClaimsEveryLine()
        assert _run_filter_ops(real, ops) == _run_filter_ops(reference, ops)
        assert real.stats == reference.stats
        assert [cache.stats for cache in real._caches] \
            == [cache.stats for cache in reference._caches]
        assert real.memory == reference.memory
        if unbounded:
            assert (real.overflow_table.spills, real.overflow_table.refills) \
                == (reference.overflow_table.spills,
                    reference.overflow_table.refills)
        real.check_invariants()

    def test_footprint_counter_matches_walk(self):
        h = MemoryHierarchy(MachineConfig(**TINY))
        h.load(0, 0x100, 1)
        h.store(0, 0x140, 2, 9)
        walked = sum(
            64 for cache in h._caches
            for resident in cache.all_lines() if resident.is_speculative())
        assert h.speculative_footprint_bytes() == walked > 0
        h.check_invariants()


class TestWrongPathMarkPruning:
    def _system(self):
        system = HMTXSystem(MachineConfig(**TINY), sla_enabled=False)
        system.thread(0, 0)
        system.thread(1, 1)
        return system

    def test_mark_from_committed_vid_does_not_misattribute(self):
        from repro.errors import MisspeculationError
        from repro.txctl.causes import AbortCause
        system = self._system()
        system.begin_mtx(0, 1)
        system.wrong_path_load(0, 0x100)     # marks the line with VID 1
        system.commit_mtx(0, 1)              # ...which then commits
        assert system._wrong_path_marks == {}
        # A genuine conflict on the same line must not be blamed on the
        # (long-committed) wrong-path mark.
        system.begin_mtx(0, 2)
        system.begin_mtx(1, 3)
        system.load(1, 0x100)                # VID 3 reads: highVID -> 3
        with pytest.raises(MisspeculationError) as info:
            system.store(0, 0x100, 1)        # VID 2 writes: ordering conflict
        assert system.stats.false_aborts_triggered == 0
        assert info.value.cause is AbortCause.CONFLICT

    def test_uncommitted_mark_still_flags_false_abort(self):
        from repro.errors import MisspeculationError
        from repro.txctl.causes import AbortCause
        system = self._system()
        system.begin_mtx(0, 1)
        system.wrong_path_load(0, 0x100)     # marks with VID 1, never commits
        system.begin_mtx(1, 2)
        system.load(1, 0x100)                # VID 2 raises highVID to 2
        with pytest.raises(MisspeculationError) as info:
            system.store(0, 0x100, 1)        # VID 1 write: 1 < highVID 2
        assert system.stats.false_aborts_triggered == 1
        assert info.value.cause is AbortCause.WRONG_PATH
