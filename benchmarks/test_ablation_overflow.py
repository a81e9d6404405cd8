"""Ablation: section 5.4 overflow handling vs the section 8 extension.

The base design aborts when a speculative version is evicted past the LLC
(mitigated by victim prioritisation); the "unlimited read and write sets"
extension spills such versions into a memory-side table instead.  Measures
both behaviours on a machine with deliberately tiny caches.
"""

import pytest
from conftest import run_once

from repro.core import MachineConfig
from repro.errors import ReproError
from repro.runtime import run_workload
from repro.workloads import Bzip2Workload

TINY_CACHES = dict(l1_size=2 * 1024, l1_assoc=4, l2_size=8 * 1024, l2_assoc=8)


def _run(unbounded: bool):
    config = MachineConfig(num_cores=4, unbounded_sets=unbounded,
                           **TINY_CACHES)
    workload = Bzip2Workload(iterations=4, block_lines=32)
    try:
        result = run_workload(workload, config, paradigm="PS-DSWP")
    except ReproError:
        return workload, None
    return workload, result


def test_overflow_spill_vs_abort(benchmark):
    _, bounded = _run(unbounded=False)
    workload, unbounded = run_once(benchmark, _run, unbounded=True)
    assert unbounded is not None
    hierarchy = unbounded.system.hierarchy
    print(f"\nbounded caches : "
          f"{'completed with aborts/serialisation' if bounded else 'no forward progress'}"
          + (f" ({bounded.system.stats.aborted} aborts, "
             f"degraded={bounded.extra['degraded_serial']})" if bounded else ""))
    print(f"unbounded sets : completed, {hierarchy.stats.spec_overflow_spills} "
          f"versions spilled, {hierarchy.overflow_table.refills} refilled, "
          f"0 overflow aborts")
    # The extension absorbs the working set without a single abort...
    assert unbounded.system.stats.aborted == 0
    assert hierarchy.stats.spec_overflow_spills > 0
    # ...and the result is exact.
    assert workload.observed_result(unbounded.system) == \
        workload.expected_result(unbounded.system)
    # The bounded system either aborted repeatedly or had to serialise.
    if bounded is not None:
        assert bounded.system.stats.aborted > 0 \
            or bounded.extra["degraded_serial"]
