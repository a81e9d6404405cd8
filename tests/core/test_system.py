"""Tests for the HMTXSystem programming interface (section 3)."""

import pytest

from repro.core import HMTXSystem, MachineConfig
from repro.errors import MisspeculationError, TransactionUsageError

ADDR = 0x4000


@pytest.fixture
def system():
    sys = HMTXSystem(MachineConfig(num_cores=4))
    for tid in range(4):
        sys.thread(tid, core=tid)
    return sys


class TestThreadManagement:
    def test_thread_registration(self, system):
        assert system.contexts[0].core == 0

    def test_core_out_of_range(self):
        sys = HMTXSystem(MachineConfig(num_cores=2))
        with pytest.raises(ValueError):
            sys.thread(0, core=5)

    def test_migration_finds_data_via_vid(self, system):
        """Section 5.2: speculative threads can migrate between cores."""
        system.begin_mtx(0, system.allocate_vid())
        system.store(0, ADDR, 42)
        system.migrate(0, core=3)
        assert system.load(0, ADDR)[0] == 42


class TestBeginMtx:
    def test_sets_vid_register(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        assert system.contexts[0].vid == vid

    def test_vid_zero_returns_to_nonspec_without_commit(self, system):
        system.hierarchy.memory.write_word(ADDR, 5)
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 99)
        system.begin_mtx(0, 0)
        # The store is still uncommitted: non-speculative readers see 5.
        assert system.load(1, ADDR)[0] == 5
        # But the transaction remains alive and committable.
        system.begin_mtx(1, vid)
        system.commit_mtx(1, vid)
        assert system.load(1, ADDR)[0] == 99

    def test_rejects_out_of_range_vid(self, system):
        with pytest.raises(TransactionUsageError):
            system.begin_mtx(0, 64)

    def test_rejects_committed_vid(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.commit_mtx(0, vid)
        with pytest.raises(TransactionUsageError):
            system.begin_mtx(0, vid)


class TestCommitOrder:
    def test_out_of_order_commit_rejected(self, system):
        """Section 4.4: software must ensure consecutive commits; we make
        violations a hard error instead of undefined behaviour."""
        v1, v2 = system.allocate_vid(), system.allocate_vid()
        system.begin_mtx(0, v1)
        system.begin_mtx(1, v2)
        with pytest.raises(TransactionUsageError):
            system.commit_mtx(1, v2)

    def test_unknown_vid_commit_rejected(self, system):
        with pytest.raises(TransactionUsageError):
            system.commit_mtx(0, 1)

    def test_in_order_commits_work(self, system):
        vids = [system.allocate_vid() for _ in range(3)]
        for tid, vid in enumerate(vids):
            system.begin_mtx(tid, vid)
            system.store(tid, ADDR + 64 * tid, vid * 10)
        for tid, vid in enumerate(vids):
            system.commit_mtx(tid, vid)
        assert system.last_committed == 3

    def test_commit_by_any_participating_thread(self, system):
        """Commit must be called once, by one of the threads (3.1) — not
        necessarily the one that began the MTX."""
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 1)
        system.begin_mtx(0, 0)
        system.begin_mtx(3, vid)
        system.commit_mtx(3, vid)
        assert system.load(2, ADDR)[0] == 1


class TestMultipleTransactionsPerCore:
    def test_thread_moves_between_open_transactions(self, system):
        """Headline feature 2: a core works on several uncommitted MTXs."""
        v1, v2, v3 = (system.allocate_vid() for _ in range(3))
        system.begin_mtx(0, v1)
        system.store(0, ADDR, 1)
        system.begin_mtx(0, v2)
        system.store(0, ADDR, 2)
        system.begin_mtx(0, v3)
        system.store(0, ADDR, 3)
        # Re-enter the first transaction; its version is intact.
        system.begin_mtx(0, v1)
        assert system.load(0, ADDR)[0] == 1
        assert len(system.active_vids) == 3


class TestAbort:
    def test_explicit_abort_raises_and_flushes(self, system):
        system.hierarchy.memory.write_word(ADDR, 5)
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 99)
        with pytest.raises(MisspeculationError):
            system.abort_mtx(0, vid)
        assert system.load(1, ADDR)[0] == 5
        assert not system.active_vids
        assert system.stats.explicit_aborts == 1

    def test_conflict_abort_records_and_reraises(self, system):
        v1, v2 = system.allocate_vid(), system.allocate_vid()
        system.begin_mtx(0, v2)
        system.load(0, ADDR)
        system.begin_mtx(1, v1)
        with pytest.raises(MisspeculationError):
            system.store(1, ADDR, 1)
        assert system.stats.aborted == 1

    def test_vids_recycle_after_abort(self, system):
        v1 = system.allocate_vid()
        system.begin_mtx(0, v1)
        system.commit_mtx(0, v1)
        system.allocate_vid()  # v2, will abort
        with pytest.raises(MisspeculationError):
            system.abort_mtx(0, 2)
        assert system.allocate_vid() == 2

    def test_recovery_handler_registration(self, system):
        handler = lambda: "recover"
        system.init_mtx(0, handler)
        assert system.recovery_handlers()[0] is handler


class TestVidReset:
    def test_reset_requires_all_committed(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        with pytest.raises(TransactionUsageError):
            system.vid_reset()

    def test_full_epoch_cycle(self):
        """Use all 2^m - 1 VIDs, reset, and keep the data (section 4.6)."""
        sys = HMTXSystem(MachineConfig(num_cores=2, vid_bits=3))
        sys.thread(0, core=0)
        for i in range(7):
            vid = sys.allocate_vid()
            sys.begin_mtx(0, vid)
            sys.store(0, ADDR + 64 * i, 100 + i)
            sys.commit_mtx(0, vid)
        assert sys.ready_for_vid_reset()
        sys.vid_reset()
        assert sys.last_committed == 0
        # New epoch: VID 1 again; old data visible to it.
        vid = sys.allocate_vid()
        assert vid == 1
        sys.begin_mtx(0, vid)
        assert sys.load(0, ADDR)[0] == 100
        sys.store(0, ADDR, 999)
        sys.commit_mtx(0, vid)
        assert sys.load(0, ADDR)[0] == 999

    def test_reset_after_abort_scrubs_lines(self):
        sys = HMTXSystem(MachineConfig(num_cores=2, vid_bits=3))
        sys.thread(0, core=0)
        for i in range(7):
            vid = sys.allocate_vid()
            sys.begin_mtx(0, vid)
            sys.store(0, ADDR, i)
            sys.commit_mtx(0, vid)
        sys.vid_reset()
        vid = sys.allocate_vid()
        sys.begin_mtx(0, vid)
        assert sys.load(0, ADDR)[0] == 6


class TestOutputBuffering:
    def test_transactional_output_held_until_commit(self, system):
        """Section 4.7: output inside a transaction must not escape."""
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.output(0, "hello")
        assert system.committed_output == []
        system.commit_mtx(0, vid)
        assert system.committed_output == ["hello"]

    def test_aborted_output_discarded(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.output(0, "doomed")
        with pytest.raises(MisspeculationError):
            system.abort_mtx(0, vid)
        assert system.committed_output == []

    def test_nonspeculative_output_immediate(self, system):
        system.output(0, "now")
        assert system.committed_output == ["now"]

    def test_multi_thread_output_ordering_by_commit(self, system):
        v1, v2 = system.allocate_vid(), system.allocate_vid()
        system.begin_mtx(0, v1)
        system.output(0, "first")
        system.begin_mtx(1, v2)
        system.output(1, "second")
        system.commit_mtx(0, v1)
        system.commit_mtx(1, v2)
        assert system.committed_output == ["first", "second"]


class TestKernelAccesses:
    def test_kernel_access_carries_no_vid(self, system):
        """Section 5.2: handler code outside the text segment never marks
        lines, so interrupts cannot cause misspeculation."""
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.load(0, ADDR)
        kaddr = 0x7F000000
        system.kernel_store(0, kaddr, 1)
        system.kernel_load(0, kaddr)
        # The kernel lines are non-speculative.
        for _, line in system.hierarchy.versions_everywhere(kaddr):
            assert not line.is_speculative()

    def test_kernel_store_to_spec_data_would_conflict(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 9)
        with pytest.raises(MisspeculationError):
            system.kernel_store(1, ADDR, 1)
