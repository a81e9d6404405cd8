"""Tests for the CPU substrate: predictors, executor, interrupts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.cpu.branch import _lcg_lanes
from repro.cpu.isa import BeginMTX, CommitMTX, Output, format_trace
from repro.errors import MisspeculationError
from repro.runtime.scheduler import Scheduler
from repro.txctl.causes import AbortCause
from repro.workloads import make_benchmark
from repro.workloads.suite import BENCHMARK_NAMES

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


#: Rates 0 and 1, every Table-1 rate, and rates whose ``rate * 2**53`` is
#: a whole number (the threshold's boundary case).
BULK_RATES = sorted({0.0, 1.0, 0.5, 3 / 1024, 1 / 2**53} | {
    make_benchmark(name, 0.1).mispredict_rate for name in BENCHMARK_NAMES})


class TestCalibratedBulkPath:
    """The executor's fused loop for a multi-branch op against per-branch
    :meth:`CalibratedPredictor.predict`, and ``predict`` against the float
    rule ``(state >> 11) / 2**53 < rate`` it stands for."""

    @pytest.mark.parametrize("rate", BULK_RATES)
    def test_bulk_stream_equals_per_branch_predict(self, system, rate):
        count, ops = 0, []
        for size in (1, 7, 64, 500, 512, 1024, 3000):
            ops.append(Branch(taken=True, count=size))
            count += size
        executor, results = run_ops(
            system, *ops,
            predictor_factory=lambda: CalibratedPredictor(rate, seed=77))
        bulk = executor._predictors[0]
        reference = CalibratedPredictor(rate, seed=77)
        streams = []
        for op in ops:
            streams.append(sum(reference.predict(0, True)
                               for _ in range(op.count)))
        assert bulk._state == reference._state
        assert bulk.stats == reference.stats
        assert executor.stats.mispredicts == reference.stats.mispredictions
        costs = system.config.op_costs
        assert [latency for _, latency in results] == [
            op.work_cycles + op.count * costs.branch
            + mispredicts * costs.branch_mispredict_penalty
            for op, mispredicts in zip(ops, streams)]
        assert reference.stats.predictions == count

    @pytest.mark.parametrize("rate", BULK_RATES)
    def test_predict_equals_the_float_rule(self, rate):
        predictor = CalibratedPredictor(rate, seed=5)
        state = predictor._state
        for _ in range(4000):
            state = (state * CalibratedPredictor._LCG_MULT
                     + CalibratedPredictor._LCG_INC) & CalibratedPredictor._MASK
            assert predictor.predict(0, True) == \
                ((state >> 11) / 2**53 < rate)

    @pytest.mark.parametrize("rate", BULK_RATES)
    def test_threshold_splits_the_states_exactly(self, rate):
        # The states on both sides of the threshold decide as the float
        # rule does.
        threshold = CalibratedPredictor(rate).threshold
        for state in {threshold - 2049, threshold - 1, threshold,
                      threshold + 2047, threshold + 2048}:
            if 0 <= state < 2**64:
                assert (state < threshold) == ((state >> 11) / 2**53 < rate)


def _stepwise_lanes(size, threshold):
    """The lane tables built one LCG step at a time: lane ``k`` holds the
    multiplier and increment of ``k + 1`` steps, the low-64-bit mask and
    ``2**64 - threshold``, each in 17 bytes."""
    step, inc, mask = (CalibratedPredictor._LCG_MULT,
                       CalibratedPredictor._LCG_INC, CalibratedPredictor._MASK)
    a, c, lanes = step, inc, ([], [], [], [])
    for _ in range(size):
        for lane, value in zip(lanes, (a, c, mask, mask + 1 - threshold)):
            lane.append(value.to_bytes(17, "little"))
        a, c = a * step & mask, (c * step + inc) & mask
    return tuple(int.from_bytes(b"".join(lane), "little") for lane in lanes)


#: Every table size a fig8 or ``all --quick`` batch builds.
BATCH_LANE_SIZES = (12, 38, 76, 110, 119, 124, 138, 428, 453, 563, 773, 787,
                    1066, 3054, 3818)
LANE_SIZES = sorted(set(range(1, 301)) | set(BATCH_LANE_SIZES)
                    | {4095, 4096, 4097})
_RNG = random.Random(1)
#: 2**64 is rate 1.0's threshold; then every Table 1 rate's and random ones.
LANE_THRESHOLDS = sorted(
    {0, 1, 2**63, 2**64}
    | {CalibratedPredictor(make_benchmark(name, 0.1).mispredict_rate).threshold
       for name in BENCHMARK_NAMES}
    | {_RNG.randrange(2**64) for _ in range(4)})


@pytest.mark.parametrize("threshold", LANE_THRESHOLDS)
def test_lane_tables_match_the_stepwise_builder(threshold):
    """The doubling builder gives the same four lane integers as stepping
    the LCG once per lane, at every size the batches use, every small
    size and around powers of two."""
    for size in LANE_SIZES:
        assert _lcg_lanes.__wrapped__(size, threshold) == \
            _stepwise_lanes(size, threshold), size


class _WrongPathLog:
    """What ``_execute_branch`` uses of a system: the op costs, and a
    ``wrong_path_load`` that logs each load and raises at the
    ``fail_at``-th."""

    def __init__(self, log, fail_at):
        self.config = MachineConfig()
        self.log = log
        self.fail_at = fail_at
        self.loads = 0

    def wrong_path_load(self, tid, addr):
        self.loads += 1
        self.log.append(("load", addr))
        if self.loads == self.fail_at:
            raise MisspeculationError("planted", cause=AbortCause.CONFLICT)
        return 0, 1


def _no_pc(tid):
    raise AssertionError("a calibrated Branch op computed a pc")


#: Lone branches with and without wrong-path loads, and bursts with them
#: (a burst without them is the bulk path, tested above).
_LONE_BRANCHES = st.lists(
    st.tuples(st.sampled_from((1, 1, 1, 3)), st.booleans(),
              st.lists(st.sampled_from((0x40, 0x80, 0xC0)), max_size=3)),
    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(_LONE_BRANCHES, st.sampled_from((0.0, 0.3, 0.7, 1.0)),
       st.one_of(st.none(), st.integers(1, 12)))
def test_calibrated_branches_match_per_branch_predict(specs, rate, fail_at):
    ops = [Branch(taken=taken, count=count, wrong_path_loads=tuple(loads),
                  work_cycles=2)
           for count, taken, loads in specs if count == 1 or loads]
    log = []
    system = _WrongPathLog(log, fail_at)
    executor = CoreExecutor(system)
    executor.pc = _no_pc
    predictor = executor._predictors[0] = CalibratedPredictor(rate, seed=11)
    predict = predictor.predict

    def logged(pc, taken):
        mispredicted = predict(pc, taken)
        log.append(("predict", mispredicted))
        return mispredicted
    predictor.predict = logged
    results = []
    for op in ops:
        try:
            results.append(executor._execute_branch(0, op))
        except MisspeculationError:
            results.append("raised")
    # The reference: one predict() per branch, each mispredict followed
    # by its op's wrong-path loads.
    costs = system.config.op_costs
    reference = CalibratedPredictor(rate, seed=11)
    expected_log, expected, mispredicts, loads = [], [], 0, 0
    for op in ops:
        latency = op.work_cycles + op.count * costs.branch
        try:
            for _ in range(op.count):
                mispredicted = reference.predict(0, op.taken)
                expected_log.append(("predict", mispredicted))
                if not mispredicted:
                    continue
                mispredicts += 1
                latency += costs.branch_mispredict_penalty
                for addr in op.wrong_path_loads:
                    loads += 1
                    expected_log.append(("load", addr))
                    if loads == fail_at:
                        raise MisspeculationError(
                            "planted", cause=AbortCause.CONFLICT)
            expected.append(latency)
        except MisspeculationError:
            expected.append("raised")
    assert log == expected_log
    assert results == expected
    assert predictor._state == reference._state
    assert predictor.stats == reference.stats
    assert (executor.stats.branches, executor.stats.mispredicts) == \
        (sum(op.count for op in ops), mispredicts)


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
        assert system.load(0, ADDR)[0] == 42
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
