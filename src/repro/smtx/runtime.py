"""Driving SMTX runs: paradigm execution plus commit-process accounting.

:func:`run_smtx` executes a workload under the SMTX baseline using the very
same paradigm executors as HMTX, with two differences that define the
comparison of Figures 2 and 8:

* the commit process occupies one core, so only ``num_cores - 1`` cores
  remain for worker threads ("SMTX requires the extra commit process,
  taking up one core's resources", section 6.2);
* the hot-loop time is ``max(worker makespan, commit-process busy time)``:
  the commit process consumes validation entries sequentially, and once the
  sets grow it — not the workers — bounds throughput.
"""

from __future__ import annotations

from typing import Optional

from ..core.config import MachineConfig
from ..runtime.paradigms import ParadigmResult, run_workload
from ..workloads.base import Workload
from .costs import ValidationMode
from .system import SMTXSystem, ValidationPredicate


def validation_predicate_for(workload: Workload,
                             mode: ValidationMode) -> ValidationPredicate:
    """Build the access-classification predicate for ``workload``/``mode``.

    * ``MAXIMAL`` validates everything.
    * ``MINIMAL`` validates only the workload's declared forwarding slots
      (the expert-programmer configuration).
    * ``SUBSTANTIAL`` validates everything in the workload's shared regions
      (what non-heroic static analysis cannot prove private).
    """
    if mode is ValidationMode.MAXIMAL:
        return lambda addr, is_store: True
    if mode is ValidationMode.MINIMAL:
        minimal = frozenset(getattr(workload, "smtx_minimal_addresses",
                                    lambda: frozenset())())
        return lambda addr, is_store: addr in minimal
    regions = getattr(workload, "smtx_shared_regions", lambda: None)()
    if regions is None:
        return lambda addr, is_store: True
    spans = tuple(regions)

    def substantial(addr: int, is_store: bool) -> bool:
        for lo, hi in spans:
            if lo <= addr < hi:
                return True
        return False
    return substantial


def run_smtx(workload: Workload, config: Optional[MachineConfig] = None,
             paradigm: Optional[str] = None,
             mode: ValidationMode = ValidationMode.MINIMAL,
             **kwargs) -> ParadigmResult:
    """Run ``workload`` under SMTX; returns a ParadigmResult whose
    ``cycles`` include the commit-process bottleneck.

    ``config.num_cores`` is the *total* core count; one core is carved out
    for the commit process before placing worker threads.
    """
    machine = config or MachineConfig()
    if machine.num_cores < 2:
        raise ValueError("SMTX needs at least 2 cores (worker + commit)")
    if machine.topology is None:
        worker_config = MachineConfig(**{**machine.__dict__,
                                         "num_cores": machine.num_cores - 1})
    else:
        # A declared topology fixes the core count (sockets × cores per
        # socket), so the commit process cannot shrink it; it runs as an
        # extra tile on socket 0 and workers keep the full machine.
        worker_config = machine
    predicate = validation_predicate_for(workload, mode)

    def factory() -> SMTXSystem:
        return SMTXSystem(config=worker_config, mode=mode,
                          validation_predicate=predicate)

    name = paradigm or workload.paradigm
    if name == "PS-DSWP":
        # Every worker core after stage 1's runs the parallel stage.  With
        # two or more workers a stage-3 thread still re-sequences and
        # commits, sharing a core with another stage; the commit
        # process's own cost is charged below.  DSWP is by definition
        # the pipeline with one stage-2 worker.
        kwargs.setdefault("stage2_workers", max(1, worker_config.num_cores - 1))
    result = run_workload(workload, worker_config, paradigm=name,
                          system_factory=factory, **kwargs)
    system = result.system
    worker_cycles = result.cycles
    commit_cycles = system.commit_process_cycles
    result.extra["worker_cycles"] = worker_cycles
    result.extra["commit_process_cycles"] = commit_cycles
    result.extra["validation_mode"] = mode.value
    result.cycles = max(worker_cycles, commit_cycles)
    result.paradigm = f"SMTX-{result.paradigm}"
    return result


def smtx_whole_program_speedup(workload: Workload, hot_loop_speedup: float
                               ) -> float:
    """Amdahl projection from hot-loop speedup to whole-program speedup.

    Figure 2 reports *whole program* numbers; Table 1's hot-loop fraction
    supplies the sequential remainder.
    """
    fraction = workload.hot_loop_fraction
    return 1.0 / ((1.0 - fraction) + fraction / hot_loop_speedup)
