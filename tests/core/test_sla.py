"""Tests for Speculative Load Acknowledgments (section 5.1)."""

import pytest

from repro.core import HMTXSystem, MachineConfig
from repro.core.sla import SlaTracker
from repro.errors import MisspeculationError

ADDR = 0x4000


class TestSlaTrackerUnit:
    def test_ghost_records_highest_vid(self):
        tracker = SlaTracker()
        tracker.record_wrong_path(0x100, 5, would_mark=True)
        tracker.record_wrong_path(0x108, 3, would_mark=True)  # same line
        assert tracker.pending_ghosts() == 1
        assert tracker._ghosts[0x100] == 5

    def test_non_marking_wrong_path_ignored(self):
        tracker = SlaTracker()
        tracker.record_wrong_path(0x100, 5, would_mark=False)
        assert tracker.pending_ghosts() == 0

    def test_nonspeculative_wrong_path_ignored(self):
        tracker = SlaTracker()
        tracker.record_wrong_path(0x100, 0, would_mark=True)
        assert tracker.pending_ghosts() == 0

    def test_store_below_ghost_counts_avoided_abort(self):
        tracker = SlaTracker()
        tracker.record_wrong_path(0x100, 5, would_mark=True)
        assert tracker.check_store(0x100, 3)
        assert tracker.pending_ghosts() == 0
        # The ghost is consumed: the avoided abort counts once.
        assert not tracker.check_store(0x100, 3)

    def test_store_at_or_above_ghost_is_harmless(self):
        tracker = SlaTracker()
        tracker.record_wrong_path(0x100, 5, would_mark=True)
        assert not tracker.check_store(0x100, 5)
        assert not tracker.check_store(0x100, 7)
        assert tracker.pending_ghosts() == 1

    def test_commit_clears_stale_ghosts(self):
        tracker = SlaTracker()
        tracker.record_wrong_path(0x100, 2, would_mark=True)
        tracker.record_wrong_path(0x140, 7, would_mark=True)
        tracker.on_commit(3)
        assert tracker.pending_ghosts() == 1

    def test_abort_clears_everything(self):
        tracker = SlaTracker()
        tracker.record_wrong_path(0x100, 2, would_mark=True)
        tracker.on_abort()
        assert tracker.pending_ghosts() == 0


@pytest.fixture
def pair():
    """(SLA-enabled system, SLA-disabled system), same setup."""
    out = []
    for enabled in (True, False):
        sys = HMTXSystem(MachineConfig(num_cores=2), sla_enabled=enabled)
        sys.thread(0, core=0)
        sys.thread(1, core=1)
        sys.hierarchy.memory.write_word(ADDR, 5)
        out.append(sys)
    return out


class TestSlaSystemBehaviour:
    def test_wrong_path_load_returns_data_without_marking(self, pair):
        system, _ = pair
        system.begin_mtx(0, system.allocate_vid())
        value, latency = system.wrong_path_load(0, ADDR)
        assert value == 5
        assert latency > 0
        assert system.stats.wrong_path_loads == 1
        for _, line in system.hierarchy.versions_everywhere(ADDR):
            assert not line.is_speculative()

    def test_false_misspeculation_avoided_with_sla(self, pair):
        """The section 5.1 scenario: a squashed VID-5 load must not make a
        VID-3 store abort."""
        system, _ = pair
        v3 = system.allocate_vid(); system.vid_space.rewind(6); v5 = 5
        system.begin_mtx(0, v5)
        system.active_vids.add(v5)
        system.wrong_path_load(0, ADDR)          # squashed load, VID 5
        system.begin_mtx(1, v3)
        system.store(1, ADDR, 99)                # would abort naively
        assert system.stats.false_aborts_avoided == 1
        assert system.stats.aborted == 0

    def test_false_misspeculation_triggers_without_sla(self, pair):
        _, naive = pair
        v3 = naive.allocate_vid(); naive.vid_space.rewind(6); v5 = 5
        naive.begin_mtx(0, v5)
        naive.active_vids.add(v5)
        naive.wrong_path_load(0, ADDR)           # really marks the line
        naive.begin_mtx(1, v3)
        with pytest.raises(MisspeculationError):
            naive.store(1, ADDR, 99)
        assert naive.stats.false_aborts_triggered == 1

    def test_sla_required_only_on_first_touch(self, pair):
        """Memory locality keeps SLA traffic low: repeat touches of a line
        already marked with the VID need no acknowledgment."""
        system, _ = pair
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        sent = []
        for addr in (ADDR, ADDR, ADDR + 8):
            system.load(0, addr)
            sent.append(system.stats.slas_sent)
        assert sent == [1, 1, 1]

    def test_sla_not_needed_after_own_store(self, pair):
        system, _ = pair
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 1)
        system.load(0, ADDR)
        assert system.stats.slas_sent == 0

    def test_new_vid_needs_new_sla(self, pair):
        system, _ = pair
        v1, v2 = system.allocate_vid(), system.allocate_vid()
        system.begin_mtx(0, v1)
        system.load(0, ADDR)
        system.begin_mtx(0, v2)
        system.load(0, ADDR)
        assert system.stats.slas_sent == 2
