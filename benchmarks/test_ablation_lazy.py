"""Ablation: lazy vs eager commit processing (section 5.3).

The naive section 4.4 scheme walks every cache line at each commit; the
lazy scheme broadcasts in O(1) and defers per-line transitions to the next
touch.  Measures simulated commit cost and wall-clock simulation effort.
"""

import time

from conftest import run_once

from repro.core import HMTXSystem, MachineConfig

LINES = 400


def _populate(system):
    system.thread(0, core=0)
    vid = system.allocate_vid()
    system.begin_mtx(0, vid)
    for i in range(LINES):
        system.store(0, 0x10_0000 + i * 64, i)
    return vid


def _commit_lazy(system, vid):
    return system.commit_mtx(0, vid)


def _commit_eager(system, vid):
    """The naive scheme: commit, then immediately walk and transition
    every line in every cache (what Vachharajani's design required)."""
    latency = system.commit_mtx(0, vid)
    walked = 0
    for cache in system.hierarchy.l1s + [system.hierarchy.llc_slices[0]]:
        for slot in list(cache.resident_slots()):
            cache._process_lazy_slot(slot)
            walked += 1
    return latency + walked  # one cycle per explicitly processed line


def test_lazy_commit_is_constant_cost(benchmark):
    system = HMTXSystem(MachineConfig())
    vid = _populate(system)
    latency = run_once(benchmark, _commit_lazy, system, vid)
    print(f"\nlazy commit: {latency} cycles for a {LINES}-line write set")
    assert latency == system.config.hierarchy_config().broadcast_latency


def test_eager_commit_scales_with_write_set():
    small = HMTXSystem(MachineConfig())
    small.thread(0, core=0)
    v = small.allocate_vid()
    small.begin_mtx(0, v)
    small.store(0, 0x10_0000, 1)
    small_cost = _commit_eager(small, v)

    large = HMTXSystem(MachineConfig())
    large_vid = _populate(large)
    large_cost = _commit_eager(large, large_vid)
    print(f"\neager commit: {small_cost} cycles (1 line) vs "
          f"{large_cost} cycles ({LINES} lines)")
    assert large_cost > small_cost + LINES / 2
