"""Golden equivalence suite for the hot-path fast-path layer.

The epoch/filter/index machinery of :mod:`repro.coherence` is *purely* an
implementation optimisation: every makespan, every ``HierarchyStats`` /
``CacheStats`` counter, every comparator energy count and every workload
result must be bit-identical to the unoptimised seed simulator.  This test
pins that contract: the checked-in goldens under ``tests/goldens/`` hold the
seed simulator's cycles, counters and results, and every run must reproduce
them exactly.  One deliberate exception: ``lazy_commits_processed``,
``occupancy`` and ``speculative_footprint_bytes`` are taken after the
workload's result check, and ``MemoryHierarchy.read_committed`` is a pure
read that no longer folds pending lazy commits the way the seed's did.

Regenerate (only after an *intentional* modelled-behaviour change) with::

    PYTHONPATH=src python -m pytest tests/integration/test_fastpath_golden.py \
        --regen-goldens
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.runtime.paradigms import run_workload
from repro.txctl import ContentionManager, make_policy
from repro.workloads import make_benchmark
from repro.workloads.contended import (
    CapacityHogWorkload,
    HighContentionListWorkload,
)

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "goldens" \
    / "fastpath_equivalence.json"

#: The Figure 8 slice: one DOALL benchmark plus two PS-DSWP benchmarks at
#: the default scale, all under HMTX with SLAs on.
FIG8_SLICE = ("052.alvinn", "130.li", "ispell")


def _cache_snapshot(cache) -> dict:
    snap = dataclasses.asdict(cache.stats)
    snap["occupancy"] = cache.occupancy()
    snap["comparator_fast"] = cache.comparator.fast_comparisons
    snap["comparator_cascaded"] = cache.comparator.cascaded_comparisons
    return snap


def snapshot(result, workload) -> dict:
    """Everything observable about a run that must stay bit-identical."""
    system = result.system
    stats = system.stats
    hierarchy = system.hierarchy
    transactions = stats.transactions
    return {
        "cycles": result.cycles,
        "recoveries": result.recoveries,
        "ops_executed": result.run.ops_executed,
        "correct": (workload.observed_result(system)
                    == workload.expected_result(system)),
        "system": {
            "committed": stats.committed,
            "aborted": stats.aborted,
            "explicit_aborts": stats.explicit_aborts,
            "spec_loads": stats.spec_loads,
            "spec_stores": stats.spec_stores,
            "slas_sent": stats.slas_sent,
            "wrong_path_loads": stats.wrong_path_loads,
            "false_aborts_avoided": stats.false_aborts_avoided,
            "false_aborts_triggered": stats.false_aborts_triggered,
            "vid_resets": stats.vid_resets,
            "transactions": len(transactions),
            "read_set_bytes": sum(t.read_set_bytes for t in transactions),
            "write_set_bytes": sum(t.write_set_bytes for t in transactions),
            "combined_set_bytes": sum(t.combined_set_bytes
                                      for t in transactions),
            "spec_accesses": sum(t.spec_accesses for t in transactions),
            "tx_slas_sent": sum(t.slas_sent for t in transactions),
        },
        "contention": {
            "by_cause": {str(k): v
                         for k, v in sorted(
                             stats.contention.by_cause.items(),
                             key=lambda kv: str(kv[0]))},
            "backoff_cycles": stats.contention.backoff_cycles,
            "fallback_iterations": stats.contention.fallback_iterations,
        },
        "hierarchy": dataclasses.asdict(hierarchy.stats),
        "speculative_footprint_bytes":
            hierarchy.speculative_footprint_bytes(),
        "caches": {cache.name: _cache_snapshot(cache)
                   for cache in hierarchy._caches},
    }


def _run_fig8_slice(name: str) -> dict:
    workload = make_benchmark(name, 1.0)
    result = run_workload(workload)
    return snapshot(result, workload)


def _run_contended_list() -> dict:
    workload = HighContentionListWorkload(nodes=24, rmw_per_iteration=2)
    manager = ContentionManager(policy=make_policy("backoff"))
    result = run_workload(workload, paradigm="PS-DSWP", manager=manager)
    return snapshot(result, workload)


def _run_capacity_hog() -> dict:
    workload = CapacityHogWorkload(iterations=4)
    manager = ContentionManager(policy=make_policy("capacity-aware"))
    result = run_workload(workload, paradigm="PS-DSWP",
                          config=CapacityHogWorkload.tiny_config(),
                          manager=manager)
    return snapshot(result, workload)


SCENARIOS = {
    **{f"fig8:{name}": (lambda n=name: _run_fig8_slice(n))
       for name in FIG8_SLICE},
    "contended-list": _run_contended_list,
    "capacity-hog": _run_capacity_hog,
}


@pytest.fixture(scope="module")
def goldens(request):
    regen = request.config.getoption("--regen-goldens")
    if regen:
        produced = {name: run() for name, run in SCENARIOS.items()}
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(produced, indent=2,
                                          sort_keys=True) + "\n")
        return produced
    if not GOLDEN_PATH.exists():
        pytest.fail(f"{GOLDEN_PATH} missing; run with --regen-goldens")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fastpath_matches_seed_golden(goldens, scenario):
    produced = SCENARIOS[scenario]()
    expected = goldens[scenario]
    # Compare section by section for a readable diff on failure.
    assert produced.keys() == expected.keys()
    for section in expected:
        assert produced[section] == expected[section], (
            f"{scenario}: section {section!r} diverged from the seed "
            f"simulator")
