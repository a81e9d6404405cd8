"""Tests for the timed queues and the discrete-event scheduler."""

import pytest

from repro.core import HMTXSystem, MachineConfig
from repro.cpu import isa
from repro.cpu.isa import (AbortMTX, Arrive, BeginMTX, Branch, CommitMTX,
                           Consume, InitMTX, Load, Op, Output, Produce,
                           SpinUntil, Store, Work)
from repro.errors import MisspeculationError
from repro.runtime.queues import QueueSet, TimedQueue
from repro.runtime.scheduler import DeadlockError, Scheduler

ADDR = 0x4000


class TestTimedQueue:
    def test_fifo_order(self):
        q = TimedQueue("q", latency=10)
        q.produce("a", now=0)
        q.produce("b", now=5)
        assert q.try_consume(100)[0] == "a"
        assert q.try_consume(100)[0] == "b"

    def test_entries_carry_latency(self):
        q = TimedQueue("q", latency=40)
        q.produce("a", now=100)
        value, ready = q.try_consume(0)
        assert ready == 140

    def test_empty_returns_none(self):
        assert TimedQueue("q").try_consume(0) is None

    def test_bounded_capacity(self):
        q = TimedQueue("q", capacity=2)
        q.produce(1, 0)
        q.produce(2, 0)
        assert q.full()

    def test_unbounded(self):
        q = TimedQueue("q", capacity=None)
        for i in range(100):
            q.produce(i, 0)
        assert not q.full()

    def test_last_pop_time_tracks_consumer(self):
        q = TimedQueue("q", latency=10)
        q.produce("a", now=0)
        q.try_consume(now=55)
        assert q.last_pop_time == 55

    def test_clear(self):
        q = TimedQueue("q")
        q.produce(1, 0)
        q.clear()
        assert q.try_consume(0) is None

    def test_queue_set_shares_latency(self):
        qs = QueueSet(latency=33)
        assert qs.get("x").latency == 33
        assert qs.get("x") is qs.get("x")


def make_scheduler(num_cores=2):
    system = HMTXSystem(MachineConfig(num_cores=num_cores))
    return system, Scheduler(system)


class TestScheduler:
    def test_single_thread_runs_to_completion(self):
        system, sched = make_scheduler()

        def program():
            yield Work(10)
            yield Store(ADDR, 7)
            value = yield Load(ADDR)
            assert value == 7

        sched.add_thread(0, core=0, program=program())
        result = sched.run()
        assert result.makespan > 10
        assert result.ops_executed == 3

    def test_producer_consumer_timing(self):
        system, sched = make_scheduler()
        times = {}

        def producer():
            yield Work(100)
            yield Produce("q", 42)

        def consumer():
            value = yield Consume("q")
            times["value"] = value

        sched.add_thread(0, core=0, program=producer())
        sched.add_thread(1, core=1, program=consumer())
        result = sched.run()
        assert times["value"] == 42
        # Consumer waited for producer work + queue latency.
        assert result.thread_clocks[1] >= 100 + system.config.queue_latency

    def test_deadlock_detection(self):
        system, sched = make_scheduler()

        def starved():
            yield Consume("never")

        sched.add_thread(0, core=0, program=starved())
        with pytest.raises(DeadlockError):
            sched.run()

    def test_core_serialises_threads(self):
        """Two threads on one core cannot overlap their work."""
        system, sched = make_scheduler(num_cores=1)

        def worker():
            yield Work(100)

        sched.add_thread(0, core=0, program=worker())
        sched.add_thread(1, core=0, program=worker())
        result = sched.run()
        assert result.makespan >= 200

    def test_threads_on_different_cores_overlap(self):
        system, sched = make_scheduler(num_cores=2)

        def worker():
            yield Work(100)

        sched.add_thread(0, core=0, program=worker())
        sched.add_thread(1, core=1, program=worker())
        assert sched.run().makespan < 200

    def test_bounded_queue_backpressure(self):
        """A producer stalls on a full queue until the consumer pops."""
        system, sched = make_scheduler()
        sched.queues.capacity = None
        sched.queues = type(sched.queues)(latency=10, capacity=1)

        def producer():
            for i in range(4):
                yield Produce("q", i)

        def consumer():
            for _ in range(4):
                yield Consume("q")
                yield Work(500)

        sched.add_thread(0, core=0, program=producer())
        sched.add_thread(1, core=1, program=consumer())
        result = sched.run()
        # Producer finished long after its own work due to back-pressure.
        assert result.thread_clocks[0] > 1000

    def test_min_clock_ordering_is_deterministic(self):
        system, sched = make_scheduler()
        order = []

        def tagged(tag, cycles):
            def program():
                for _ in range(3):
                    order.append(tag)
                    yield Work(cycles)
            return program()

        sched.add_thread(0, core=0, program=tagged("slow", 100))
        sched.add_thread(1, core=1, program=tagged("fast", 10))
        sched.run()
        # The fast thread executes several ops per slow op.
        assert order.count("fast") == 3
        assert order[:3].count("fast") >= 2

    def test_replace_programs_keeps_clocks(self):
        system, sched = make_scheduler()

        def first():
            yield Work(500)

        sched.add_thread(0, core=0, program=first())
        sched.run()

        def second():
            yield Work(1)

        sched.replace_programs({0: second()})
        result = sched.run()
        assert result.thread_clocks[0] >= 501


class TestOpDispatch:
    """``Scheduler.run`` is the only code that executes ops: every
    concrete op class of the ISA runs through it, nothing else does."""

    def test_every_isa_op_runs_through_the_scheduler(self):
        system, sched = make_scheduler()
        first = system.allocate_vid()
        second = system.allocate_vid()
        ops = [Work(2), Store(ADDR, 3), Load(ADDR), Branch(taken=True),
               Arrive(1000), SpinUntil(lambda: True, 4),
               InitMTX(lambda: None), BeginMTX(first), Output("x"),
               CommitMTX(first), Produce("q", 9), Consume("q"),
               BeginMTX(second), AbortMTX(second)]
        concrete = {cls for cls in vars(isa).values()
                    if isinstance(cls, type) and issubclass(cls, Op)
                    and cls is not Op}
        assert {op.__class__ for op in ops} == concrete
        values = []

        def program():
            for op in ops:
                values.append((yield op))

        sched.add_thread(0, core=0, program=program())
        with pytest.raises(MisspeculationError):
            sched.run()
        # Load reads the store, the late-free Arrive idles to its
        # timestamp, a satisfied spin polls 0 times, Consume pops 9.
        assert values == [None, None, 3, None, 0, 0, None, None, None,
                          None, None, 9, None]
        assert system.committed_output == ["x"]
        assert system.last_committed == first
        assert sched.threads[0].clock >= 1000
        # Every core op but the spin and the queue ops counts one
        # instruction (Work(2) counts two) and one pc slot.
        assert sched.executor.stats.instructions == 12
        assert sched.executor._pc[0] == 4 * 11

    @pytest.mark.parametrize("op", [object(), None, "Work", Work, Op()],
                             ids=["object", "None", "str", "class", "Op"])
    def test_anything_else_raises_type_error(self, op):
        _, sched = make_scheduler()

        def program():
            yield op

        sched.add_thread(0, core=0, program=program())
        with pytest.raises(TypeError):
            sched.run()
