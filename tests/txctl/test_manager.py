"""Contention manager: escalation ladder, fallback, and recovery edges.

Unit tests drive the manager with synthetic aborts; the runtime tests run
real workloads through the paradigm executors to cover the serial
fallback path end to end, including the seed runtime's livelock scenario
(capacity aborts that survive serialisation) and aborts interleaved with
VID-reset stalls.
"""

import pytest

from repro.core import MachineConfig
from repro.errors import LivelockError, MisspeculationError
from repro.runtime import run_workload
from repro.txctl import (
    Action,
    AbortCause,
    ContentionManager,
    FallbackLock,
    ImmediateRetry,
    SerialFallback,
)
from repro.workloads import CapacityHogWorkload, HighContentionListWorkload


def _abort(cause=AbortCause.CONFLICT, vid=1):
    return MisspeculationError("synthetic", vid=vid, cause=cause)


class TestEscalationLadder:
    def test_first_abort_retries(self):
        manager = ContentionManager()
        decision = manager.on_abort(_abort(), committed=0)
        assert decision.action is Action.RETRY

    def test_serializes_after_two_no_progress_aborts(self):
        """The seed runtime's serialize-after-2 behaviour is preserved as
        one rung of the ladder."""
        manager = ContentionManager()
        manager.on_abort(_abort(), committed=0)
        decision = manager.on_abort(_abort(), committed=0)
        assert decision.action is Action.SERIALIZE
        assert manager.serialized

    def test_progress_resets_the_no_progress_count(self):
        manager = ContentionManager()
        manager.on_abort(_abort(), committed=1)
        decision = manager.on_abort(_abort(), committed=2)
        assert decision.action is Action.RETRY
        assert manager.no_progress == 0

    def test_serialization_is_sticky(self):
        manager = ContentionManager()
        manager.on_abort(_abort(), committed=0)
        manager.on_abort(_abort(), committed=0)
        decision = manager.on_abort(_abort(), committed=5)
        assert decision.action is Action.SERIALIZE

    def test_no_progress_while_serialized_falls_back(self):
        manager = ContentionManager()
        decisions = [manager.on_abort(_abort(), committed=0)
                     for _ in range(4)]
        assert decisions[-1].action is Action.FALLBACK
        assert manager.fallback_taken

    def test_repeated_capacity_abort_while_serialized_falls_back(self):
        """A non-transient cause recurring after serialisation cannot
        succeed speculatively; the manager must not burn the rest of the
        recovery budget on it."""
        manager = ContentionManager()
        manager.on_abort(_abort(AbortCause.CAPACITY_OVERFLOW), committed=0)
        manager.on_abort(_abort(AbortCause.CAPACITY_OVERFLOW), committed=0)
        decision = manager.on_abort(_abort(AbortCause.CAPACITY_OVERFLOW),
                                    committed=0)
        assert decision.action is Action.FALLBACK

    def test_recovery_budget_exhaustion_falls_back(self):
        manager = ContentionManager(max_recoveries=3,
                                    serialize_after_no_progress=100,
                                    fallback_after_no_progress=100,
                                    policy=ImmediateRetry())
        for _ in range(3):
            committed = manager.recoveries + 1  # always progresses
            manager.on_abort(_abort(), committed=committed)
        decision = manager.on_abort(_abort(), committed=10)
        assert decision.action is Action.FALLBACK

    def test_disabled_fallback_raises_typed_livelock_error(self):
        manager = ContentionManager(fallback=None)
        with pytest.raises(LivelockError) as info:
            for _ in range(10):
                manager.on_abort(_abort(vid=7), committed=0)
        assert info.value.vid == 7
        assert info.value.recoveries == 4
        assert "VID 7" in str(info.value)

    def test_stats_account_decisions(self):
        manager = ContentionManager()
        for _ in range(4):
            manager.on_abort(_abort(), committed=0)
        stats = manager.stats
        assert stats.aborts == 4
        assert stats.retries == 1
        assert stats.serialized_recoveries == 2
        assert stats.fallback_entries == 1

    def test_bind_resets_per_run_state(self):
        class FakeStats:
            committed = 0

        class FakeSystem:
            def __init__(self):
                from repro.core.stats import SystemStats
                self.stats = SystemStats()

        manager = ContentionManager()
        for _ in range(4):
            manager.on_abort(_abort(), committed=0)
        system = FakeSystem()
        manager.bind(system)
        assert manager.recoveries == 0
        assert not manager.serialized
        assert not manager.fallback_taken
        assert manager.stats is system.stats.contention


class TestFallbackLock:
    def test_acquire_release_cycle(self):
        lock = FallbackLock()
        lock.acquire(3)
        assert lock.held and lock.holder == 3
        lock.release(3)
        assert not lock.held
        assert lock.acquisitions == 1

    def test_double_acquire_rejected(self):
        lock = FallbackLock()
        lock.acquire(0)
        with pytest.raises(RuntimeError):
            lock.acquire(1)

    def test_foreign_release_rejected(self):
        lock = FallbackLock()
        lock.acquire(0)
        with pytest.raises(RuntimeError):
            lock.release(1)

    def test_manager_reports_lock_state(self):
        fallback = SerialFallback()
        manager = ContentionManager(fallback=fallback)
        assert not manager.fallback_lock_held
        fallback.lock.acquire(0)
        assert manager.fallback_lock_held

    def test_managers_do_not_share_locks(self):
        a, b = ContentionManager(), ContentionManager()
        a.fallback.lock.acquire(0)
        assert not b.fallback_lock_held


class TestRuntimeRecovery:
    def test_capacity_livelock_completes_via_serial_fallback(self):
        """The acceptance scenario: transactions whose write sets overflow
        a tiny hierarchy livelocked the seed runtime; the fallback now
        finishes them non-speculatively with the result intact."""
        workload = CapacityHogWorkload(iterations=2)
        result = run_workload(workload,
                              config=CapacityHogWorkload.tiny_config())
        assert result.extra["serial_fallback"]
        contention = result.system.stats.contention
        assert contention.cause_count(AbortCause.CAPACITY_OVERFLOW) > 0
        assert contention.fallback_iterations == workload.iterations
        assert contention.fallback_entries == 1
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_fallback_resumes_after_committed_iterations(self):
        """Iterations committed speculatively before the fallback must not
        be re-executed: early small iterations commit, a later huge write
        set forces the fallback, which resumes at ``stats.committed``."""

        class MixedHog(CapacityHogWorkload):
            """The first two iterations write two lines each."""

            tiny = CapacityHogWorkload(lines_per_iteration=2)

            def _body(self, i):
                return (self.tiny if i < 2 else super())._body(i)

            def expected_result(self, system):
                total = 0
                for i in range(self.iterations):
                    lines = 2 if i < 2 else self.lines_per_iteration
                    total += sum((i * 131 + j * 17 + 1) & 0xFFFFFFFF
                                 for j in range(lines))
                return total & 0xFFFFFFFF

        workload = MixedHog(iterations=4)
        result = run_workload(workload,
                              config=CapacityHogWorkload.tiny_config())
        contention = result.system.stats.contention
        assert result.extra["serial_fallback"]
        # The fallback picked up exactly the iterations that had not
        # committed speculatively when it took over.
        assert result.committed > 0
        assert contention.fallback_iterations == \
            workload.iterations - result.committed
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_disabled_fallback_surfaces_livelock_error(self):
        workload = CapacityHogWorkload(iterations=2)
        manager = ContentionManager(fallback=None)
        with pytest.raises(LivelockError) as info:
            run_workload(workload,
                         config=CapacityHogWorkload.tiny_config(),
                         manager=manager)
        assert info.value.vid > 0
        assert info.value.recoveries > 0

    def test_abort_during_vid_reset_stall(self):
        """vid_bits=2 leaves 3 usable VIDs, so the runtime constantly
        stalls for VID resets; conflict aborts raised around those stalls
        must still recover to a correct result."""
        workload = HighContentionListWorkload(nodes=16, rmw_per_iteration=2)
        result = run_workload(workload,
                              config=MachineConfig(num_cores=4, vid_bits=2))
        assert result.system.stats.vid_resets > 0
        assert result.committed == workload.iterations
        assert workload.counter_value(result.system) == \
            workload.expected_counter()
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_conflicts_cured_without_fallback(self):
        """Pure conflict contention must stay speculative: the ladder's
        serialisation rung suffices and the fallback is never entered."""
        workload = HighContentionListWorkload(nodes=24, rmw_per_iteration=2)
        result = run_workload(workload)
        assert not result.extra["serial_fallback"]
        assert result.committed == workload.iterations
        assert workload.counter_value(result.system) == \
            workload.expected_counter()
