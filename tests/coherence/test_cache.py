"""Tests for the versioned set-associative cache: lookup, lazy processing,
victim selection, install-replace, VID reset."""

import pytest

from repro.coherence.cache import _VICTIM_CLASS_BY_CODE, VersionedCache
from repro.coherence.states import CODE_EXCLUSIVE, CODE_INVALID, CODE_SO, State

from .legacy_line import CacheLine
from .state_rules import inject, install


def make_cache(assoc=4, sets=4, **kw):
    return VersionedCache("L1[test]", size=assoc * sets * 64, assoc=assoc,
                          line_size=64, **kw)


def line(addr, state, mod=0, high=0, data=None):
    return CacheLine(addr, state, data if data is not None else [0] * 8,
                     mod, high)


def evict(cache, line):
    """Install ``line``; return the victim that needs action as the
    ``(code, addr, data, modVID, highVID)`` columns ``install_slot`` hands
    back, or None when no victim or only a silent one left."""
    _, code, addr, data, mod_vid, high_vid = cache.install_slot(
        line.addr, line.state.code, line.data, line.mod_vid, line.high_vid)
    return None if code == CODE_INVALID else (code, addr, data, mod_vid,
                                              high_vid)


def gone(cache, line):
    """Install ``line``; return ``(addr, code)`` of every version that left
    the cache, silent victims included."""
    store = cache._store

    def resident():
        return {(store.addr[slot], store.state[slot], store.mod_vid[slot],
                 store.high_vid[slot]) for slot in cache.resident_slots()}

    before = resident()
    install(cache, line)
    return sorted((addr, code) for addr, code, *_ in before - resident())


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(assoc=4, sets=8)
        assert cache.num_sets == 8

    def test_size_must_divide(self):
        with pytest.raises(ValueError):
            VersionedCache("bad", size=1000, assoc=3)

    def test_line_size_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            VersionedCache("bad", size=48 * 8, assoc=8, line_size=48)

    def test_set_index_ignores_vids(self):
        """Section 4.1: the set index depends only on the address."""
        cache = make_cache()
        assert cache.set_index(0x40) == cache.set_index(0x40)
        assert cache.set_index(0x0) != cache.set_index(0x40)

    def test_line_addr(self):
        assert make_cache().line_addr(0x7F) == 0x40


class TestLookup:
    def test_miss_on_empty(self):
        assert make_cache().lookup(0x40, 1) is None

    def test_plain_hit(self):
        cache = make_cache()
        install(cache, line(0x40, State.EXCLUSIVE))
        assert cache.lookup(0x40, 0).state is State.EXCLUSIVE

    def test_version_selection_by_vid(self):
        """The Figure 5 three-version set resolves each VID uniquely."""
        cache = make_cache()
        install(cache, line(0x40, State.SO, 0, 1, data=[10] * 8))
        install(cache, line(0x40, State.SO, 1, 2, data=[11] * 8))
        install(cache, line(0x40, State.SM, 2, 2, data=[12] * 8))
        assert cache.lookup(0x40, 1).data[0] == 11
        assert cache.lookup(0x40, 2).data[0] == 12
        assert cache.lookup(0x40, 5).data[0] == 12

    def test_nonspeculative_requests_use_lc_vid(self):
        cache = make_cache()
        install(cache, line(0x40, State.SO, 0, 2, data=[10] * 8))
        install(cache, line(0x40, State.SM, 2, 2, data=[12] * 8))
        cache.lc_vid = 0
        assert cache.lookup(0x40, 0).data[0] == 10
        # After VID 2 commits, non-speculative readers see version 2.
        cache.broadcast_commit(2)
        hit = cache.lookup(0x40, 0)
        assert hit.data[0] == 12

    def test_duplicate_hit_is_a_protocol_bug(self):
        cache = make_cache()
        install(cache, line(0x40, State.SM, 1, 1))
        # Force an illegal overlapping version in directly (bypassing
        # install's same-version replacement, but registering it in the
        # set list and version index like any resident line).
        inject(cache, line(0x40, State.SM, 2, 2))
        with pytest.raises(AssertionError):
            cache.lookup(0x40, 5)


class TestInstallReplace:
    def test_same_modvid_version_is_replaced(self):
        cache = make_cache()
        install(cache, line(0x40, State.SS, 1, 2))
        install(cache, line(0x40, State.SS, 1, 3))
        versions = cache.versions(0x40)
        assert len(versions) == 1
        assert versions[0].vids == (1, 3)

    def test_different_modvid_coexists(self):
        cache = make_cache()
        install(cache, line(0x40, State.SO, 0, 1))
        install(cache, line(0x40, State.SM, 1, 1))
        assert len(cache.versions(0x40)) == 2

    def test_spec_and_nonspec_mod0_do_not_replace(self):
        cache = make_cache()
        install(cache, line(0x40, State.SO, 0, 5))
        install(cache, line(0x80, State.EXCLUSIVE))
        assert len(cache.versions(0x40)) == 1


class TestVictimSelection:
    def test_priority_ordering(self):
        """Section 5.4 classes, lowest evicted first: clean < dirty
        non-speculative < S-S < overflowable S-O(0, h) < pinned S-O."""
        assert _VICTIM_CLASS_BY_CODE[CODE_INVALID] == min(
            _VICTIM_CLASS_BY_CODE)
        chain = [(State.SHARED, 0, 0), (State.MODIFIED, 0, 0),
                 (State.SS, 1, 2), (State.SO, 0, 2), (State.SO, 1, 2)]
        for lower, higher in zip(chain, chain[1:]):
            cache = make_cache(assoc=2, sets=1)
            install(cache, line(0x00, *higher))
            # The lower class is the most recently used: only its class
            # can make it the victim.
            install(cache, line(0x40, *lower))
            assert gone(cache, line(0x80, State.EXCLUSIVE)) == \
                [(0x40, lower[0].code)], (lower, higher)

    def test_pinned_speculative_evicted_last(self):
        """Section 5.4: overflowable S-O (modVID 0) preferred over versions
        whose eviction past the LLC would abort."""
        cache = make_cache(assoc=2, sets=1)
        install(cache, line(0x00, State.SM, 1, 1))
        install(cache, line(0x40, State.SO, 0, 1))
        victim = evict(cache, line(0x80, State.SE, 0, 2))
        assert victim[0] == CODE_SO               # not the S-M
        assert cache.stats.evictions == 1

    def test_committed_version_processed_before_choosing(self):
        """A stale, fully-committed superseded version must die during
        victim selection rather than be evicted as 'speculative'."""
        cache = make_cache(assoc=2, sets=1)
        install(cache, line(0x00, State.SO, 1, 2))
        install(cache, line(0x40, State.SM, 2, 2))
        cache.broadcast_commit(2)
        # S-O(1,2) died at processing; nothing live needed eviction.
        assert evict(cache, line(0x80, State.EXCLUSIVE)) is None
        assert cache.stats.evictions == 0
        assert cache.occupancy() == 2

    def test_lru_within_class(self):
        cache = make_cache(assoc=2, sets=1)
        install(cache, line(0x00, State.EXCLUSIVE))
        install(cache, line(0x40, State.EXCLUSIVE))
        cache.lookup(0x00, 0)  # touch -> 0x40 becomes LRU
        assert gone(cache, line(0x80, State.EXCLUSIVE)) == \
            [(0x40, CODE_EXCLUSIVE)]

    def test_victim_columns_carry_its_data_by_reference(self):
        cache = make_cache(assoc=1, sets=1)
        words = [5] * 8
        install(cache, line(0x40, State.SO, 1, 3, data=words))
        victim = evict(cache, line(0x80, State.EXCLUSIVE))
        assert victim == (CODE_SO, 0x40, words, 1, 3)
        assert victim[2] is words
        # A clean victim leaves silently: counted, but not handed back.
        assert evict(cache, line(0xC0, State.EXCLUSIVE)) is None
        assert cache.stats.evictions == 2
        assert cache.lookup(0x80, 0) is None

    def test_full_set_install_takes_the_victims_slot(self):
        """The new version moves into the victim's slot in place; the
        free list (here holding a slot freed in another set) is untouched."""
        cache = make_cache(assoc=2, sets=2)
        victim = cache.install_slot(0x00, CODE_EXCLUSIVE, [0] * 8, 0, 0)[0]
        install(cache, line(0x80, State.EXCLUSIVE))     # same set as 0x00
        install(cache, line(0x40, State.EXCLUSIVE))     # the other set
        cache.drop(cache.lookup(0x40, 0))
        free = list(cache._store.free_slots)
        assert free
        slot, vcode, *_ = cache.install_slot(0x100, CODE_EXCLUSIVE, [1] * 8,
                                             0, 0)
        assert vcode == CODE_INVALID            # the clean 0x00 left silently
        assert cache.lookup(0x00, 0) is None
        assert slot == victim
        assert cache._store.free_slots == free
        assert cache.lookup(0x100, 0).data == [1] * 8
        cache.check_index_integrity()

    def test_class_order_then_lru(self):
        """E, M, S-S, S-O(0,h) and S-M leave in class order, each class
        by LRU tick, however the ticks run against the classes."""
        resident = [  # (addr, state, mod, high, lru tick)
            (0x000, State.EXCLUSIVE, 0, 0, 7),
            (0x040, State.EXCLUSIVE, 0, 0, 6),
            (0x080, State.MODIFIED, 0, 0, 5),
            (0x0C0, State.SS, 1, 2, 4),
            (0x100, State.SO, 0, 2, 3),
            (0x140, State.SM, 2, 2, 2),
            (0x180, State.SM, 1, 1, 1),
        ]
        cache = make_cache(assoc=len(resident), sets=1)
        for addr, state, mod, high, tick in resident:
            view = cache._inject_line(addr, state.code, [0] * 8, mod, high,
                                      epoch=cache._epoch)
            cache._store.lru_tick[view.slot] = tick
        cache._tick = len(resident)     # newcomers tick later than all
        order = []
        for i in range(len(resident)):
            # Pinned newcomers (S-M, later ticks) never outrank a resident.
            left = gone(cache, line(0x1000 + i * 64, State.SM, 8 + i, 8 + i))
            order.extend(addr for addr, _ in left)
        assert order == [0x040, 0x000, 0x080, 0x0C0, 0x100, 0x180, 0x140]

    def test_invalid_chosen_only_when_the_whole_set_is_invalid(self):
        cache = make_cache(assoc=2, sets=1)
        cache._inject_line(0x00, CODE_INVALID, [0] * 8, epoch=cache._epoch)
        install(cache, line(0x40, State.EXCLUSIVE))
        # The INVALID slot is older and in the lowest class, yet skipped.
        assert gone(cache, line(0x80, State.EXCLUSIVE)) == \
            [(0x40, CODE_EXCLUSIVE)]
        assert cache.stats.evictions == 1

        cache = make_cache(assoc=2, sets=1)
        for addr in (0x00, 0x40):
            cache._inject_line(addr, CODE_INVALID, [0] * 8,
                               epoch=cache._epoch)
        # The set's first slot goes, and is not counted as an eviction.
        assert gone(cache, line(0x80, State.EXCLUSIVE)) == \
            [(0x00, CODE_INVALID)]
        assert cache.stats.evictions == 0


class TestLazyCommitAbort:
    def test_commit_broadcast_is_o1(self):
        cache = make_cache()
        for i in range(4):
            install(cache, line(0x40 * i, State.SM, 1, 1))
        cache.broadcast_commit(1)
        assert cache.lc_vid == 1
        # No state changed yet (lazy): raw stored states still S-M.
        raw = [l for l in cache.all_lines()]
        assert all(l.state is State.SM for l in raw)

    def test_commit_processed_at_touch(self):
        cache = make_cache()
        install(cache, line(0x40, State.SM, 1, 1))
        cache.broadcast_commit(1)
        hit = cache.lookup(0x40, 0)
        assert hit.state is State.MODIFIED
        assert hit.vids == (0, 0)

    def test_se_commits_clean(self):
        cache = make_cache()
        install(cache, line(0x40, State.SE, 0, 1))
        cache.broadcast_commit(1)
        assert cache.lookup(0x40, 0).state is State.EXCLUSIVE

    def test_abort_processed_at_touch(self):
        cache = make_cache()
        install(cache, line(0x40, State.SM, 1, 1))
        install(cache, line(0x80, State.SE, 0, 1))
        cache.broadcast_abort()
        assert cache.lookup(0x40, 0) is None          # doomed data died
        assert cache.lookup(0x80, 0).state is State.SHARED

    def test_commit_then_abort_ordering(self):
        """The CB-then-AB race of the flash-bit scheme, resolved exactly:
        a commit broadcast followed by an abort must commit VID 1's data
        and kill VID 2's."""
        cache = make_cache()
        install(cache, line(0x40, State.SO, 1, 2, data=[7] * 8))  # v1 backup... superseded by v2
        install(cache, line(0x80, State.SM, 1, 1, data=[5] * 8))  # v1's own line
        cache.broadcast_commit(1)
        cache.broadcast_abort()
        # v1's S-M line was *fully* committed before the abort (the
        # commit transition ran first during replay), so it is already a
        # plain MODIFIED line the abort does not touch.
        hit = cache.lookup(0x80, 0)
        assert hit.state is State.MODIFIED
        assert hit.data[0] == 5
        # The S-O(1,2): commit(1) zeroes modVID, abort drops the spec
        # marking -> survives as OWNED with version-1 data.
        hit40 = cache.lookup(0x40, 0)
        assert hit40.state is State.OWNED
        assert hit40.data[0] == 7

    def test_multiple_aborts_replay_in_order(self):
        cache = make_cache()
        install(cache, line(0x40, State.SM, 3, 3))
        cache.broadcast_abort()
        cache.broadcast_abort()
        assert cache.lookup(0x40, 0) is None

    def test_install_after_abort_not_affected(self):
        cache = make_cache()
        cache.broadcast_abort()
        install(cache, line(0x40, State.SM, 1, 1))
        assert cache.lookup(0x40, 1).state is State.SM


class TestVidReset:
    def test_reset_scrubs_all_vids(self):
        cache = make_cache()
        install(cache, line(0x00, State.SM, 63, 63, data=[1] * 8))
        install(cache, line(0x40, State.SO, 0, 63))
        cache.broadcast_commit(63)
        cache.vid_reset()
        assert cache.lc_vid == 0
        for l in cache.all_lines():
            assert not l.is_speculative()
            assert l.vids == (0, 0)

    def test_reset_preserves_latest_data(self):
        cache = make_cache()
        install(cache, line(0x00, State.SM, 5, 5, data=[42] * 8))
        cache.broadcast_commit(5)
        cache.vid_reset()
        assert cache.lookup(0x00, 0).data[0] == 42

    def test_new_epoch_vids_work_after_reset(self):
        cache = make_cache()
        install(cache, line(0x00, State.SM, 60, 60))
        cache.broadcast_commit(60)
        cache.vid_reset()
        # New epoch's VID 1 must hit the (now non-speculative) line.
        assert cache.lookup(0x00, 1) is not None

    def test_reset_clears_abort_history(self):
        cache = make_cache()
        install(cache, line(0x00, State.SM, 2, 2))
        cache.broadcast_commit(2)
        cache.broadcast_abort()
        cache.vid_reset()
        assert cache._abort_history == []
        install(cache, line(0x40, State.SM, 1, 1))
        assert cache.lookup(0x40, 1).state is State.SM
