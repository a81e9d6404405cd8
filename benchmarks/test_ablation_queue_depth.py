"""Ablation: bounded DSWP queue depth / live-transaction throttle.

Live transactions each pin a version of hot forwarded lines in one cache
set (section 5.4); unbounded run-ahead overflows the set and aborts.
Measures throughput across queue depths.
"""

from conftest import run_once

from repro.runtime import paradigms, run_workload
from repro.workloads import LinkedListWorkload


def _cycles_with_throttle(max_live: int) -> int:
    original = paradigms.base._MAX_LIVE_TRANSACTIONS
    paradigms.base._MAX_LIVE_TRANSACTIONS = max_live
    try:
        workload = LinkedListWorkload(nodes=48, work_cycles=300)
        result = run_workload(workload, paradigm="PS-DSWP")
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)
        return result.cycles, result.system.stats.aborted
    finally:
        paradigms.base._MAX_LIVE_TRANSACTIONS = original


def test_throttle_depth(benchmark):
    sweep = {}
    for depth in (2, 4, 8, 20):
        sweep[depth] = _cycles_with_throttle(depth)
    run_once(benchmark, _cycles_with_throttle, 20)
    print("\nmax live TXs  cycles     aborts")
    for depth, (cycles, aborts) in sweep.items():
        print(f"{depth:>12}  {cycles:>8,}  {aborts}")
    # Too tight a window strangles the pipeline.
    assert sweep[2][0] > sweep[20][0]
    # The default window completes without overflow aborts.
    assert sweep[20][1] == 0
