"""Tests for the CPU substrate: predictors, executor, interrupts."""

import pytest
from hypothesis import given, strategies as st

from repro.core import HMTXSystem, MachineConfig
from repro.cpu import (
    Branch,
    CalibratedPredictor,
    CoreExecutor,
    GsharePredictor,
    InterruptInjector,
    Load,
    Store,
    Work,
)
from repro.cpu.isa import BeginMTX, CommitMTX, Output, format_trace
from repro.runtime.scheduler import Scheduler

ADDR = 0x4000


@pytest.fixture
def system():
    sys = HMTXSystem(MachineConfig(num_cores=2))
    sys.thread(0, core=0)
    sys.thread(1, core=1)
    return sys


class TestGshare:
    def test_learns_a_stable_pattern(self):
        predictor = GsharePredictor()
        for _ in range(200):
            predictor.predict(0x400, True)
        recent_mispredicts = predictor.stats.mispredictions
        for _ in range(200):
            predictor.predict(0x400, True)
        assert predictor.stats.mispredictions == recent_mispredicts

    def test_random_pattern_mispredicts_often(self):
        predictor = GsharePredictor()
        import random
        rng = random.Random(7)
        for _ in range(500):
            predictor.predict(0x400, rng.random() < 0.5)
        assert predictor.stats.mispredict_rate > 0.2


class TestCalibratedPredictor:
    @given(st.sampled_from([0.005, 0.02, 0.05]))
    def test_converges_to_rate(self, rate):
        predictor = CalibratedPredictor(rate, seed=123)
        for i in range(8000):
            predictor.predict(i, True)
        assert predictor.stats.mispredict_rate == pytest.approx(rate, rel=0.4)

    def test_deterministic(self):
        a = CalibratedPredictor(0.05, seed=9)
        b = CalibratedPredictor(0.05, seed=9)
        seq_a = [a.predict(i, True) for i in range(100)]
        seq_b = [b.predict(i, True) for i in range(100)]
        assert seq_a == seq_b

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            CalibratedPredictor(1.5)


def run_ops(system, *ops, predictor_factory=None):
    """Yield ``ops`` from thread 0 of a one-thread :class:`Scheduler`;
    returns its executor and one ``(value, latency)`` pair per op."""
    executor = CoreExecutor(system, predictor_factory=predictor_factory)
    scheduler = Scheduler(system, executor=executor)
    results = []

    def program():
        for op in ops:
            before = handle.clock
            value = yield op
            results.append((value, handle.clock - before))

    handle = scheduler.add_thread(0, core=0, program=program())
    scheduler.run()
    return executor, results


class TestCoreExecutor:
    def test_work_costs_cycles(self, system):
        _, [(_, latency)] = run_ops(system, Work(17))
        assert latency == 17

    def test_load_returns_value(self, system):
        system.hierarchy.memory.write_word(ADDR, 42)
        _, [(value, latency)] = run_ops(system, Load(ADDR))
        assert value == 42
        assert latency > 0

    def test_store_then_load(self, system):
        _, results = run_ops(system, Store(ADDR, 7), Load(ADDR))
        assert results[1][0] == 7

    def test_mtx_ops_dispatch(self, system):
        vid = system.allocate_vid()
        run_ops(system, BeginMTX(vid), Store(ADDR, 1), CommitMTX(vid))
        assert system.last_committed == vid

    def test_output_op(self, system):
        run_ops(system, Output("x"))
        assert system.committed_output == ["x"]

    def test_unknown_op_rejected(self, system):
        with pytest.raises(TypeError):
            run_ops(system, object())

    def test_mispredicted_branch_pays_penalty(self, system):
        _, [(_, latency)] = run_ops(
            system, Branch(taken=True),
            predictor_factory=lambda: CalibratedPredictor(1.0))
        costs = system.config.op_costs
        assert latency == costs.branch + costs.branch_mispredict_penalty

    def test_correct_branch_is_cheap(self, system):
        _, [(_, latency)] = run_ops(
            system, Branch(taken=True),
            predictor_factory=lambda: CalibratedPredictor(0.0))
        assert latency == system.config.op_costs.branch

    def test_burst_branch_counts_all(self, system):
        executor, [(_, latency)] = run_ops(
            system, Branch(taken=True, count=10, work_cycles=50),
            predictor_factory=lambda: CalibratedPredictor(0.0))
        assert executor.stats.branches == 10
        assert latency == 50 + 10 * system.config.op_costs.branch

    def test_wrong_path_loads_fire_on_mispredict(self, system):
        system.hierarchy.memory.write_word(ADDR, 5)
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        run_ops(system, Branch(taken=True, wrong_path_loads=(ADDR,)),
                predictor_factory=lambda: CalibratedPredictor(1.0))
        assert system.stats.wrong_path_loads == 1

    def test_instruction_mix_accounting(self, system):
        executor, _ = run_ops(
            system, Work(10), Branch(taken=True, count=5, work_cycles=5),
            predictor_factory=lambda: CalibratedPredictor(0.0))
        # 10 (work) + 5 branches + 5 filler = 20 instructions, 5 branches.
        assert executor.stats.instructions == 20
        assert executor.stats.branch_fraction == pytest.approx(0.25)


class TestInterrupts:
    def test_fires_on_period(self, system):
        injector = InterruptInjector(period=1000, handler_accesses=2)
        assert injector.maybe_interrupt(system, 0, 0, clock=500) == 0
        latency = injector.maybe_interrupt(system, 0, 0, clock=1200)
        assert latency > 0
        assert injector.fired == 1

    def test_disabled_by_default(self, system):
        injector = InterruptInjector()
        assert injector.maybe_interrupt(system, 0, 0, clock=10**9) == 0

    def test_interrupt_does_not_disturb_speculation(self, system):
        """Section 5.2: a transaction survives an interrupt."""
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 42)
        injector = InterruptInjector(period=10, handler_accesses=8)
        injector.maybe_interrupt(system, 0, 0, clock=100)
        assert system.load(0, ADDR).value == 42
        system.commit_mtx(0, vid)
        assert system.stats.aborted == 0

    def test_per_core_periods(self, system):
        injector = InterruptInjector(period=1000)
        injector.maybe_interrupt(system, 0, 0, clock=1500)
        assert injector.maybe_interrupt(system, 1, 1, clock=500) == 0
        assert injector.fired == 1


class TestFormatTrace:
    def test_truncation(self):
        ops = [Work(1)] * 30
        text = format_trace(ops, limit=5)
        assert "25 more" in text
