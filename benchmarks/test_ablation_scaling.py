"""Ablation: snoopy bus vs directory coherence across core counts.

Section 8: "Future work could adapt the HMTX coherence scheme to a
directory-based protocol to allow for efficient scaling to many more
cores."  Measures PS-DSWP speedup at 4/8/16 cores under both organisations.
"""

from conftest import run_once

from repro.core import MachineConfig
from repro.runtime import run_workload
from repro.workloads import LinkedListWorkload


def _speedup(coherence: str, num_cores: int) -> float:
    seq = run_workload(LinkedListWorkload(nodes=64, work_cycles=900),
                       paradigm="Sequential")
    workload = LinkedListWorkload(nodes=64, work_cycles=900)
    result = run_workload(
        workload, MachineConfig(num_cores=num_cores, coherence=coherence),
        paradigm="PS-DSWP", stage2_workers=num_cores - 2)
    assert workload.observed_result(result.system) == \
        workload.expected_result(result.system)
    return seq.cycles / result.cycles


def test_directory_scaling(benchmark):
    sweep = {(coherence, cores): _speedup(coherence, cores)
             for coherence in ("snoopy", "directory")
             for cores in (4, 8, 16)}
    run_once(benchmark, _speedup, "directory", 16)
    print("\ncores  snoopy  directory")
    for cores in (4, 8, 16):
        print(f"{cores:>5}  {sweep[('snoopy', cores)]:.2f}x   "
              f"{sweep[('directory', cores)]:.2f}x")
    # At 4 cores the organisations are comparable...
    assert abs(sweep[("snoopy", 4)] - sweep[("directory", 4)]) < 0.5
    # ...and the directory pulls ahead as cores (and bus pressure) grow.
    assert sweep[("directory", 16)] > sweep[("snoopy", 16)]
    assert sweep[("directory", 16)] > sweep[("directory", 4)]
