"""Tests for the coherence state taxonomy and the cache-line model."""

import pytest

from repro.core.config import MachineConfig
from repro.coherence.memory import MainMemory
from repro.coherence.states import (
    CLEAN_STATES,
    DIRTY_STATES,
    LATEST_SPEC_STATES,
    NONSPECULATIVE_STATES,
    SPECULATIVE_STATES,
    SUPERSEDED_SPEC_STATES,
    State,
    is_dirty,
    is_speculative,
    is_valid,
)

from .legacy_line import CacheLine


class TestStateTaxonomy:
    def test_nine_states_total(self):
        assert len(State) == 9

    def test_speculative_and_nonspeculative_partition(self):
        assert SPECULATIVE_STATES | NONSPECULATIVE_STATES == frozenset(State)
        assert not SPECULATIVE_STATES & NONSPECULATIVE_STATES

    def test_four_speculative_states(self):
        assert SPECULATIVE_STATES == {State.SM, State.SO, State.SE, State.SS}

    def test_latest_vs_superseded_partition_speculative(self):
        assert LATEST_SPEC_STATES | SUPERSEDED_SPEC_STATES == SPECULATIVE_STATES
        assert not LATEST_SPEC_STATES & SUPERSEDED_SPEC_STATES

    def test_dirty_clean_partition_valid_states(self):
        valid = frozenset(State) - {State.INVALID}
        assert DIRTY_STATES | CLEAN_STATES == valid
        assert not DIRTY_STATES & CLEAN_STATES

    def test_se_is_clean_sm_is_dirty(self):
        """Section 4.1: S-E returns clean on commit, S-M dirty."""
        assert not is_dirty(State.SE)
        assert is_dirty(State.SM)

    def test_is_valid(self):
        assert not is_valid(State.INVALID)
        assert all(is_valid(s) for s in State if s is not State.INVALID)

    def test_is_speculative(self):
        assert is_speculative(State.SS)
        assert not is_speculative(State.MODIFIED)


class TestCacheLine:
    def test_vids_tuple_matches_paper_notation(self):
        line = CacheLine(0x40, State.SM, [0] * 8, mod_vid=2, high_vid=5)
        assert line.vids == (2, 5)

    def test_negative_vids_rejected(self):
        with pytest.raises(ValueError):
            CacheLine(0x40, State.SM, [0] * 8, mod_vid=-1)

    def test_copy_data_does_not_alias(self):
        line = CacheLine(0x40, State.SM, [1, 2, 3])
        copy = line.copy_data()
        copy[0] = 99
        assert line.data[0] == 1

    def test_set_vids(self):
        line = CacheLine(0x40, State.SE, [0])
        line.set_vids(0, 7)
        assert line.vids == (0, 7)

    def test_speculative_and_dirty_predicates(self):
        assert CacheLine(0, State.SO, [0], 1, 2).is_speculative()
        assert CacheLine(0, State.SO, [0], 1, 2).is_dirty()
        assert not CacheLine(0, State.SHARED, [0]).is_speculative()


class TestMainMemory:
    def test_word_roundtrip(self):
        mem = MainMemory()
        mem.write_word(0x100, 42)
        assert mem.read_word(0x100) == 42

    def test_unwritten_words_read_zero(self):
        assert MainMemory().read_word(0x9999998) == 0

    def test_word_alignment(self):
        mem = MainMemory()
        mem.write_word(0x105, 7)  # lands in the word at 0x100
        assert mem.read_word(0x100) == 7

    def test_line_roundtrip(self):
        mem = MainMemory()
        data = list(range(8))
        mem.write_line(0x1000, data)
        assert mem.read_line(0x1000) == data

    def test_line_lists_are_never_shared(self):
        """Caches mutate a fetched line in place, so no two reads may
        share a list, with memory's words or with each other.  A
        written-back list is handed over: memory keeps it by reference
        (an evicted version's list, which its cache no longer holds)."""
        mem = MainMemory()
        data = list(range(8))
        mem.write_line(0x40, data)
        assert mem._lines[0x40] is data
        first = mem.read_line(0x40)
        second = mem.read_line(0x40)
        assert first == second == list(range(8))
        assert first is not data
        assert first is not second
        first[0] = 99
        assert mem.read_line(0x40)[0] == 0
        assert mem.read_word(0x40) == 0

    def test_unaligned_line_roundtrip(self):
        """Any byte address inside a line names the whole line."""
        mem = MainMemory()
        data = [10 + i for i in range(8)]
        mem.write_line(0x1013, data)
        assert mem.read_line(0x103F) == data
        assert mem.read_line(0x1000) == data
        assert [mem.read_word(0x1000 + 8 * i) for i in range(8)] == data
        assert mem.read_line(0x1040) == [0] * 8
        assert mem.read_line(0xFC0) == [0] * 8
        mem.write_word(0x200F, 5)          # the second word of a new line
        assert mem.read_line(0x2000) == [0, 5, 0, 0, 0, 0, 0, 0]

    def test_line_addressing_helpers(self):
        mem = MainMemory()
        assert mem.line_addr(0x1035) == 0x1000
        assert mem.word_index(0x1010) == 2
        assert mem.words_per_line == 8

    def test_wrong_line_length_rejected(self):
        with pytest.raises(ValueError):
            MainMemory().write_line(0, [1, 2, 3])

    def test_line_size_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            MainMemory(line_size=60)

    @pytest.mark.parametrize("line_size", [48, 96, 24, 4])
    def test_hierarchy_rejects_non_power_of_two_geometry(self, line_size):
        """The access paths index with shifts and masks: a line that is not
        a power of two (or holds a non-power-of-two word count) is refused
        up front instead of silently taking a slower path."""
        with pytest.raises(ValueError, match="power of two"):
            MachineConfig(line_size=line_size)

    def test_hierarchy_accepts_power_of_two_geometry(self):
        for line_size in (8, 32, 64, 128):
            assert MachineConfig(line_size=line_size).line_size == line_size

    def test_traffic_counters(self):
        mem = MainMemory()
        mem.write_line(0, [0] * 8)
        mem.read_line(0)
        assert mem.writebacks == 1
        assert mem.reads == 1

    def test_footprint(self):
        mem = MainMemory()
        mem.write_word(0x0, 1)
        mem.write_word(0x8, 1)    # same line
        mem.write_word(0x40, 1)   # next line
        assert mem.footprint_lines() == 2
