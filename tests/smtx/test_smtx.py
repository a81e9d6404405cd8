"""Tests for the SMTX software-TM baseline."""

import pytest

from repro.core import MachineConfig
from repro.errors import MisspeculationError, TransactionUsageError
from repro.experiments.engine import RunRequest, execute_request
from repro.runtime.paradigms import run_workload
from repro.smtx import (
    SMTXSystem,
    SmtxCosts,
    SmtxMemory,
    ValidationMode,
    run_smtx,
    smtx_whole_program_speedup,
    validation_predicate_for,
)
from repro.smtx.memory import ValidationLog
from repro.workloads.linkedlist import LinkedListWorkload

ADDR = 0x4000


class TestSmtxMemory:
    def test_committed_read_write(self):
        mem = SmtxMemory()
        mem.write(0, ADDR, 5)
        assert mem.read(0, ADDR) == 5

    def test_buffered_writes_invisible_to_committed(self):
        mem = SmtxMemory()
        mem.write(0, ADDR, 5)
        mem.write(3, ADDR, 9)
        assert mem.read(0, ADDR) == 5
        assert mem.read(3, ADDR) == 9

    def test_uncommitted_value_forwarding(self):
        mem = SmtxMemory()
        mem.write(2, ADDR, 22)
        assert mem.read(5, ADDR) == 22  # later VID sees earlier buffer
        assert mem.read(1, ADDR) == 0   # earlier VID does not

    def test_newest_eligible_buffer_wins(self):
        mem = SmtxMemory()
        mem.write(2, ADDR, 22)
        mem.write(4, ADDR, 44)
        assert mem.read(3, ADDR) == 22
        assert mem.read(9, ADDR) == 44

    def test_commit_applies_in_order(self):
        mem = SmtxMemory()
        mem.write(1, ADDR, 11)
        assert mem.commit(1) == 1
        assert mem.read(0, ADDR) == 11

    def test_abort_discards_buffers(self):
        mem = SmtxMemory()
        mem.write(1, ADDR, 11)
        mem.abort_all()
        assert mem.read(5, ADDR) == 0


class TestValidationLog:
    def test_validation_passes_when_values_stable(self):
        mem, log = SmtxMemory(), ValidationLog()
        mem.write(0, ADDR, 5)
        log.log_read(1, ADDR, 5)
        assert log.validate(1, mem) is None

    def test_validation_catches_changed_value(self):
        mem, log = SmtxMemory(), ValidationLog()
        mem.write(0, ADDR, 5)
        log.log_read(1, ADDR, 5)
        mem.write(0, ADDR, 6)   # someone changed committed state
        violation = log.validate(1, mem)
        assert violation is not None
        assert violation.addr == ADDR

    def test_entry_counting(self):
        log = ValidationLog()
        log.log_read(1, ADDR, 0)
        log.log_write(1, ADDR, 1)
        assert log.entries(1) == 2
        log.pop(1)
        assert log.entries(1) == 0


@pytest.fixture
def system():
    sys = SMTXSystem(MachineConfig(num_cores=3))
    sys.thread(0, core=0)
    sys.thread(1, core=1)
    return sys


class TestSMTXSystem:
    def test_transactional_store_load(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 7)
        assert system.load(0, ADDR)[0] == 7

    def test_forwarding_between_threads(self, system):
        v1 = system.allocate_vid()
        system.begin_mtx(0, v1)
        system.store(0, ADDR, 7)
        system.begin_mtx(1, v1)
        assert system.load(1, ADDR)[0] == 7

    def test_commit_publishes(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 7)
        system.commit_mtx(0, vid)
        assert system.load(1, ADDR)[0] == 7

    def test_commit_order_enforced(self, system):
        v1, v2 = system.allocate_vid(), system.allocate_vid()
        system.begin_mtx(0, v1)
        system.begin_mtx(1, v2)
        with pytest.raises(TransactionUsageError):
            system.commit_mtx(1, v2)

    def test_validated_accesses_cost_more(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        validated = system.load(0, ADDR)[1]
        system.begin_mtx(0, 0)
        raw = system.load(0, ADDR)[1]
        assert validated > raw

    def test_commit_process_accumulates_work(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        for i in range(10):
            system.store(0, ADDR + 8 * i, i)
        before = system.commit_process_cycles
        system.commit_mtx(0, vid)
        delta = system.commit_process_cycles - before
        assert delta >= 10 * system.costs.validate_entry

    def test_real_conflict_detected_at_validation(self, system):
        """A read whose committed value changed fails validation."""
        system.memory.write(0, ADDR, 5)
        v1, v2 = system.allocate_vid(), system.allocate_vid()
        system.begin_mtx(1, v2)
        system.load(1, ADDR)                # v2 reads 5, logged
        system.begin_mtx(0, v1)
        system.store(0, ADDR, 99)           # v1 writes (later in time)
        system.commit_mtx(0, v1)
        with pytest.raises(MisspeculationError):
            system.commit_mtx(1, v2)

    def test_wrong_path_loads_are_free_of_logging(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.wrong_path_load(0, ADDR)
        assert system.log.entries(vid) == 0

    def test_no_vid_reset_in_software(self, system):
        assert not system.ready_for_vid_reset()
        with pytest.raises(TransactionUsageError):
            system.vid_reset()


class TestValidationPredicates:
    def test_maximal_validates_everything(self):
        pred = validation_predicate_for(LinkedListWorkload(), ValidationMode.MAXIMAL)
        assert pred(0x123456, False)

    def test_minimal_only_forwarding_slots(self):
        workload = LinkedListWorkload()
        pred = validation_predicate_for(workload, ValidationMode.MINIMAL)
        assert pred(workload.produced_node, True)
        assert not pred(workload.node_region, False)

    def test_substantial_covers_shared_regions(self):
        workload = LinkedListWorkload()
        pred = validation_predicate_for(workload, ValidationMode.SUBSTANTIAL)
        assert pred(workload.node_region + 64, False)
        assert not pred(workload.table_region, False)


class TestRunSmtx:
    @pytest.fixture(scope="class")
    def baseline(self):
        workload = LinkedListWorkload(nodes=24)
        seq = run_workload(workload, paradigm="Sequential")
        return workload.expected_result(seq.system), seq.cycles

    def test_correct_result_all_modes(self, baseline):
        expected, _ = baseline
        for mode in ValidationMode:
            workload = LinkedListWorkload(nodes=24)
            result = run_smtx(workload, mode=mode)
            assert workload.observed_result(result.system) == expected, mode

    def test_validation_cost_ordering(self, baseline):
        """More validation -> slower: the Figure 2 monotonicity."""
        _, seq_cycles = baseline
        cycles = {}
        for mode in ValidationMode:
            workload = LinkedListWorkload(nodes=24)
            cycles[mode] = run_smtx(workload, mode=mode).cycles
        assert cycles[ValidationMode.MINIMAL] \
            <= cycles[ValidationMode.SUBSTANTIAL] \
            <= cycles[ValidationMode.MAXIMAL]

    def test_commit_process_takes_a_core(self):
        workload = LinkedListWorkload(nodes=12)
        result = run_smtx(workload, MachineConfig(num_cores=4))
        # Worker threads only ever use cores 0..2.
        assert result.system.config.num_cores == 3

    def test_needs_two_cores(self):
        with pytest.raises(ValueError):
            run_smtx(LinkedListWorkload(nodes=4), MachineConfig(num_cores=1))

    def test_paradigm_label(self):
        result = run_smtx(LinkedListWorkload(nodes=12))
        assert result.paradigm.startswith("SMTX-")

    def test_dswp_keeps_one_stage2_worker(self):
        """DSWP is the one-worker pipeline on SMTX too: the PS-DSWP
        worker-count default must not reach it."""
        record = execute_request(RunRequest(
            workload="130.li", system="smtx-minimal", scale=0.25,
            paradigm="DSWP"))
        assert record.correct
        assert record.paradigm == "SMTX-DSWP"


class TestWholeProgramProjection:
    def test_amdahl(self):
        workload = LinkedListWorkload()
        workload.hot_loop_fraction = 0.5
        assert smtx_whole_program_speedup(workload, 2.0) == pytest.approx(4 / 3)

    def test_full_fraction_passthrough(self):
        workload = LinkedListWorkload()
        workload.hot_loop_fraction = 1.0
        assert smtx_whole_program_speedup(workload, 2.0) == pytest.approx(2.0)
