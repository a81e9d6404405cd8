"""Failure injection: random aborts at arbitrary execution points.

A chaos system flips a deterministic pseudo-random coin before memory
operations and triggers a full transactional abort — modelling asynchronous
failure sources (watchdogs, software-detected misspeculation, conservative
OS events) striking at the worst possible moments.  Whatever the injection
pattern, recovery must reproduce sequential semantics exactly.
"""

import pytest

from repro.core import HMTXSystem
from repro.errors import MisspeculationError
from repro.txctl import AbortCause
from repro.runtime.paradigms import run_workload
from repro.workloads import LinkedListWorkload, Lcg
from repro.workloads.alvinn import AlvinnWorkload


class ChaosSystem(HMTXSystem):
    """Randomly aborts all speculation before some memory operations."""

    def __init__(self, rate_denominator: int, seed: int) -> None:
        super().__init__()
        self._rng = Lcg(seed)
        self._denominator = rate_denominator
        self.injected = 0

    def _chaos(self, tid):
        if self.contexts[tid].vid > 0 \
                and self.active_vids \
                and self._rng.next(self._denominator) == 0:
            self.injected += 1
            self._abort(explicit=True)
            raise MisspeculationError("chaos: injected abort",
                                      cause=AbortCause.INTERRUPT)

    def load(self, tid, addr, now=0):
        self._chaos(tid)
        return super().load(tid, addr, now)

    def store(self, tid, addr, value, now=0):
        self._chaos(tid)
        return super().store(tid, addr, value, now)


def chaos_factory(rate_denominator: int, seed: int):
    return lambda: ChaosSystem(rate_denominator, seed)


class TestChaos:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_ps_dswp_survives_random_aborts(self, seed):
        factory = chaos_factory(rate_denominator=150, seed=seed)
        workload = LinkedListWorkload(nodes=24)
        result = run_workload(workload, paradigm="PS-DSWP",
                              system_factory=factory)
        system = result.system
        assert system.injected > 0, "chaos never fired; lower the rate"
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)
        assert result.recoveries >= system.injected

    @pytest.mark.parametrize("seed", [3, 11])
    def test_doall_survives_random_aborts(self, seed):
        factory = chaos_factory(rate_denominator=500, seed=seed)
        workload = AlvinnWorkload(iterations=10)
        result = run_workload(workload, paradigm="DOALL",
                              system_factory=factory)
        assert result.system.injected > 0
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_heavy_chaos_degrades_but_completes(self):
        """Very frequent injection forces the serial fallback; the result
        must still be exact."""
        factory = chaos_factory(rate_denominator=60, seed=5)
        workload = LinkedListWorkload(nodes=16)
        result = run_workload(workload, paradigm="PS-DSWP",
                              system_factory=factory)
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_every_iteration_commits_exactly_once(self):
        factory = chaos_factory(rate_denominator=300, seed=9)
        workload = LinkedListWorkload(nodes=20)
        result = run_workload(workload, paradigm="PS-DSWP",
                              system_factory=factory)
        assert result.system.stats.committed == workload.iterations
