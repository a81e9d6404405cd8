"""Edge cases of the paradigm executors: degenerate sizes and shapes."""

import pytest

from repro.core import MachineConfig
from repro.runtime.paradigms import run_workload
from repro.workloads import LinkedListWorkload


@pytest.mark.parametrize("paradigm", ["Sequential", "DSWP", "PS-DSWP",
                                      "DOACROSS", "DOALL"])
class TestSingleIteration:
    def test_one_iteration_loop(self, paradigm):
        workload = LinkedListWorkload(nodes=1)
        result = run_workload(workload, paradigm=paradigm)
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)


@pytest.mark.parametrize("paradigm", ["DSWP", "PS-DSWP", "DOACROSS",
                                      "DOALL"])
class TestTwoIterations:
    def test_two_iteration_loop(self, paradigm):
        workload = LinkedListWorkload(nodes=2)
        result = run_workload(workload, paradigm=paradigm)
        assert result.system.stats.committed == 2
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)


class TestShapes:
    def test_two_core_machine_runs_ps_dswp(self):
        """On 2 cores the pipeline collapses to DSWP (1 worker, inline)."""
        workload = LinkedListWorkload(nodes=12)
        result = run_workload(workload, MachineConfig(num_cores=2),
                              paradigm="PS-DSWP")
        assert result.paradigm == "DSWP"
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_more_workers_than_iterations(self):
        workload = LinkedListWorkload(nodes=3)
        result = run_workload(workload, MachineConfig(num_cores=8),
                              paradigm="PS-DSWP", stage2_workers=6)
        assert result.system.stats.committed == 3
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_single_worker_doall(self):
        workload = LinkedListWorkload(nodes=6)
        result = run_workload(workload, paradigm="DOALL", workers=1)
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_minimum_vid_space(self):
        """1-bit VIDs: exactly one speculative transaction per epoch."""
        workload = LinkedListWorkload(nodes=6)
        result = run_workload(workload, MachineConfig(vid_bits=1),
                              paradigm="PS-DSWP")
        assert result.system.vid_space.resets >= 5
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)
