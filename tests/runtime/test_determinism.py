"""Determinism: identical configurations must produce identical runs.

The simulator is a deterministic discrete-event system — no wall-clock, no
process randomness.  Reproducibility is what makes the calibrated Table 1
statistics and the regression benchmarks meaningful.
"""

import pytest

from repro.core import MachineConfig
from repro.runtime.paradigms import run_workload
from repro.workloads import LinkedListWorkload, executor_factory_for, make_benchmark


class TestDeterminism:
    def test_sequential_runs_identical(self):
        a = run_workload(LinkedListWorkload(nodes=20), paradigm="Sequential")
        b = run_workload(LinkedListWorkload(nodes=20), paradigm="Sequential")
        assert a.cycles == b.cycles
        assert a.run.ops_executed == b.run.ops_executed

    def test_parallel_runs_identical(self):
        a = run_workload(LinkedListWorkload(nodes=20), paradigm="PS-DSWP")
        b = run_workload(LinkedListWorkload(nodes=20), paradigm="PS-DSWP")
        assert a.cycles == b.cycles
        assert a.run.thread_clocks == b.run.thread_clocks

    @pytest.mark.parametrize("name", ["ispell", "130.li"])
    def test_benchmark_stats_reproducible(self, name):
        def run():
            workload = make_benchmark(name, 0.4)
            result = run_workload(
                workload, executor_factory=executor_factory_for(workload))
            stats = result.system.stats
            return (result.cycles, stats.slas_sent, stats.spec_loads,
                    stats.avg_combined_set_kb,
                    result.extra["exec_stats"].mispredicts)

        assert run() == run()

    def test_directory_runs_identical(self):
        config = MachineConfig(coherence="directory")
        a = run_workload(LinkedListWorkload(nodes=16), config,
                         paradigm="PS-DSWP")
        b = run_workload(LinkedListWorkload(nodes=16), config,
                         paradigm="PS-DSWP")
        assert a.cycles == b.cycles

    def test_distinct_configs_distinct_timings(self):
        """Sanity: the determinism is not 'everything collapses to the
        same number' — changing the machine changes the timing."""
        fast = run_workload(LinkedListWorkload(nodes=20),
                            MachineConfig(memory_latency=100),
                            paradigm="PS-DSWP")
        slow = run_workload(LinkedListWorkload(nodes=20),
                            MachineConfig(memory_latency=400),
                            paradigm="PS-DSWP")
        assert fast.cycles != slow.cycles
