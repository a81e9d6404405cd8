"""Tests for the parallel execution paradigms on the linked-list workload."""

import inspect

import pytest

from repro.core import MachineConfig
from repro.obs.tap import Tap
from repro.runtime.paradigms import PARADIGMS, run_workload
from repro.workloads.linkedlist import LinkedListWorkload


def fresh(nodes=24, **kw):
    return LinkedListWorkload(nodes=nodes, **kw)


@pytest.fixture(scope="module")
def sequential_baseline():
    workload = fresh()
    result = run_workload(workload, paradigm="Sequential")
    return workload.expected_result(result.system), result.cycles


class TestSequential:
    def test_produces_golden_result(self, sequential_baseline):
        expected, _ = sequential_baseline
        workload = fresh()
        result = run_workload(workload, paradigm="Sequential")
        assert workload.observed_result(result.system) == expected

    def test_no_transactions(self):
        result = run_workload(fresh(), paradigm="Sequential")
        assert result.system.stats.committed == 0
        assert result.paradigm == "Sequential"


@pytest.mark.parametrize("paradigm", ["DSWP", "PS-DSWP", "DOACROSS", "DOALL"])
class TestSpeculativeParadigms:
    def test_correct_result(self, paradigm, sequential_baseline):
        expected, _ = sequential_baseline
        workload = fresh()
        result = run_workload(workload, paradigm=paradigm)
        assert workload.observed_result(result.system) == expected
        assert result.paradigm == paradigm

    def test_one_transaction_per_iteration(self, paradigm,
                                            sequential_baseline):
        workload = fresh()
        result = run_workload(workload, paradigm=paradigm)
        assert result.system.stats.committed == workload.iterations

    def test_no_misspeculation(self, paradigm, sequential_baseline):
        """High-confidence speculation: zero aborts, as in section 6.3."""
        workload = fresh()
        result = run_workload(workload, paradigm=paradigm)
        assert result.system.stats.aborted == 0
        assert result.recoveries == 0


class TestParadigmRelativePerformance:
    """The section 2.1 ordering on a pipeline-friendly loop."""

    @pytest.fixture(scope="class")
    def cycles(self):
        out = {}
        for name, paradigm in [("seq", "Sequential"), ("doacross", "DOACROSS"),
                               ("dswp", "DSWP"), ("ps", "PS-DSWP")]:
            out[name] = run_workload(fresh(nodes=40, work_cycles=300),
                                     paradigm=paradigm).cycles
        return out

    def test_ps_dswp_is_fastest(self, cycles):
        assert cycles["ps"] < cycles["dswp"]
        assert cycles["ps"] < cycles["doacross"]
        assert cycles["ps"] < cycles["seq"]

    def test_dswp_beats_doacross(self, cycles):
        """Pipeline paradigms hide inter-core latency; DOACROSS pays it
        per iteration (Figure 1)."""
        assert cycles["dswp"] < cycles["doacross"]


class TestVidOverflow:
    def test_ps_dswp_survives_vid_exhaustion(self):
        """More iterations than VIDs forces the 4.6 reset protocol."""
        config = MachineConfig(num_cores=4, vid_bits=3)  # only 7 VIDs
        workload = fresh(nodes=30)
        result = run_workload(workload, config, paradigm="PS-DSWP")
        assert result.system.vid_space.resets >= 3
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_doall_epoch_barrier(self):
        config = MachineConfig(num_cores=4, vid_bits=3)
        workload = fresh(nodes=30)
        result = run_workload(workload, config, paradigm="DOALL")
        assert result.system.vid_space.resets >= 3
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)


class TestDispatch:
    def test_run_workload_uses_declared_paradigm(self):
        result = run_workload(fresh())
        assert result.paradigm == "PS-DSWP"

    def test_explicit_paradigm(self):
        result = run_workload(fresh(), paradigm="DOACROSS")
        assert result.paradigm == "DOACROSS"

    def test_unknown_paradigm(self):
        with pytest.raises(ValueError, match="DOACROSS.*PS-DSWP"):
            run_workload(fresh(), paradigm="MAGIC")

    @pytest.mark.parametrize("paradigm,option", [
        ("Sequential", {"workers": 2}),
        ("DOALL", {"stage2_workers": 2}),
        ("DSWP", {"stage2_workers": 2}),
        ("PS-DSWP", {"workers": 2}),
    ])
    def test_option_the_paradigm_does_not_take(self, paradigm, option):
        with pytest.raises(TypeError):
            run_workload(fresh(), paradigm=paradigm, **option)

    def test_bad_option_fails_before_any_set_up(self):
        class Spy:
            def __init__(self):
                self.systems = []

            def attach_system(self, system):
                self.systems.append(system)

        class NoSetup(LinkedListWorkload):
            def setup(self, system):
                raise AssertionError("setup ran before the options were "
                                     "checked")

        spy = Spy()
        with Tap(spy).activate():
            with pytest.raises(TypeError, match="stage2_workers"):
                run_workload(NoSetup(nodes=8), paradigm="DOALL",
                             stage2_workers=2)
        assert spy.systems == []

    def test_builders_take_only_their_own_options(self):
        """Machine, scheduler and recovery knobs belong to the driver."""
        driver_only = {"interrupts", "executor_factory", "system_factory",
                       "manager", "backend", "sla_enabled"}
        for name, builder in PARADIGMS.items():
            params = inspect.signature(builder).parameters
            assert list(params)[:2] == ["workload", "system"], name
            assert not driver_only & set(params), name


class TestWorkerScaling:
    def test_more_stage2_workers_helps(self):
        slow = run_workload(fresh(nodes=40, work_cycles=600),
                            paradigm="PS-DSWP", stage2_workers=1)
        config8 = MachineConfig(num_cores=8)
        fast = run_workload(fresh(nodes=40, work_cycles=600), config8,
                            paradigm="PS-DSWP", stage2_workers=6)
        assert fast.cycles < slow.cycles
