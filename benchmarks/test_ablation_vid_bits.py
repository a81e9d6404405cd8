"""Ablation: VID width m (section 4.6's trade-off).

Small VID spaces force frequent resets, stalling the pipeline until the
maximum VID commits; wide VIDs cost tag area.  The paper settles on m = 6.
"""

from conftest import run_once

from repro.core import MachineConfig
from repro.power import McPatModel
from repro.runtime import run_workload
from repro.workloads import LinkedListWorkload


def _cycles_for_bits(bits: int) -> tuple:
    workload = LinkedListWorkload(nodes=60, work_cycles=200)
    result = run_workload(workload, MachineConfig(vid_bits=bits),
                          paradigm="PS-DSWP")
    assert workload.observed_result(result.system) == \
        workload.expected_result(result.system)
    return result.cycles, result.system.vid_space.resets


def test_vid_width_tradeoff(benchmark):
    sweep = {}
    for bits in (2, 3, 4, 6, 8):
        sweep[bits] = _cycles_for_bits(bits)
    run_once(benchmark, _cycles_for_bits, 6)
    print("\nm   cycles     resets   +area (mm^2)")
    for bits, (cycles, resets) in sweep.items():
        extra = McPatModel(MachineConfig(vid_bits=bits),
                           hmtx_extensions=True).area().hmtx_extensions
        print(f"{bits}   {cycles:>8,}   {resets:>5}   {extra:.2f}")
    # Narrow VIDs stall the pipeline on resets...
    assert sweep[2][1] > sweep[6][1]
    assert sweep[2][0] > sweep[6][0]
    # ...while m=6 already gets within a whisker of m=8.
    assert sweep[6][0] < 1.1 * sweep[8][0]
    # Tag area grows with m.
    assert McPatModel(MachineConfig(vid_bits=8), True).total_area() > \
        McPatModel(MachineConfig(vid_bits=2), True).total_area()
