"""Abort-recovery tests: misspeculating workloads must still produce the
sequential result after rollback and re-execution."""

import pytest

from repro.cpu.isa import AbortMTX, Load, Store, Work
from repro.runtime.paradigms import run_workload
from repro.workloads.base import Workload
from repro.workloads.linkedlist import LinkedListWorkload


class ConflictingWorkload(LinkedListWorkload):
    """A linked-list loop whose stage 2 occasionally writes a *shared*
    location out of order — guaranteeing genuine misspeculation."""

    name = "conflicting"

    def __init__(self, nodes=18, conflict_every=6):
        super().__init__(nodes=nodes)
        self.conflict_every = conflict_every
        self.shared_addr = 0x9_0000

    def stage2_iteration(self, i):
        yield from super().stage2_iteration(i)
        if i % self.conflict_every == self.conflict_every - 1:
            # Reads then writes a shared word: later iterations read it
            # first (they run concurrently), so the write aborts sometimes.
            value = yield Load(self.shared_addr)
            yield Work(120)
            yield Store(self.shared_addr, value + 1)


class ExplicitAbortWorkload(LinkedListWorkload):
    """Raises abortMTX once, mid-run (software-detected misspeculation)."""

    name = "explicit-abort"

    def __init__(self, nodes=12):
        super().__init__(nodes=nodes)
        self._aborted_once = False

    def stage2_iteration(self, i):
        yield from super().stage2_iteration(i)
        if i == 5 and not self._aborted_once:
            self._aborted_once = True
            yield AbortMTX(i + 1)


class TestConflictRecovery:
    def test_result_correct_despite_aborts(self):
        workload = ConflictingWorkload()
        expected_workload = ConflictingWorkload()
        seq = run_workload(expected_workload, paradigm="Sequential")
        expected = expected_workload.expected_result(seq.system)
        result = run_workload(workload, paradigm="PS-DSWP")
        assert workload.observed_result(result.system) == expected

    def test_all_iterations_eventually_commit(self):
        workload = ConflictingWorkload()
        result = run_workload(workload, paradigm="PS-DSWP")
        assert result.system.stats.committed >= workload.iterations

    def test_shared_counter_is_sequentially_consistent(self):
        workload = ConflictingWorkload(nodes=18, conflict_every=3)
        result = run_workload(workload, paradigm="PS-DSWP")
        final = result.system.hierarchy.load(0, workload.shared_addr, 0)[0]
        assert final == 18 // 3


class TestExplicitAbortRecovery:
    def test_recovers_and_completes(self):
        workload = ExplicitAbortWorkload()
        result = run_workload(workload, paradigm="PS-DSWP")
        assert result.recoveries >= 1
        assert result.system.stats.explicit_aborts == 1
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_committed_iterations_not_redone_from_scratch(self):
        workload = ExplicitAbortWorkload()
        result = run_workload(workload, paradigm="PS-DSWP")
        # Exactly the aborted tail is re-executed: committed count equals
        # the iteration count (each iteration commits exactly once).
        assert result.system.stats.committed == workload.iterations
