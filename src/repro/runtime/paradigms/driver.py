"""The one paradigm driver: machine set-up, recovery and the result.

A paradigm is only a builder ``(workload, system, **its options) ->
(label, build)`` whose ``build(start, serial)`` returns fresh per-thread
programs; :data:`PARADIGMS` names every builder, and :func:`run_workload`
does everything else for all of them.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional, Tuple

from ...backends import TMBackend, get_backend
from ...core.config import MachineConfig
from ...cpu.core_model import CoreExecutor
from ...cpu.interrupts import InterruptInjector
from ...obs import hooks as _obs
from ...txctl import ContentionManager
from ...workloads.base import Workload
from ..scheduler import Scheduler
from .base import Build, ParadigmResult, run_with_recovery
from .doacross import doacross
from .doall import doall
from .ps_dswp import ps_dswp
from .sequential import sequential

#: Table 1 paradigm name → builder.  DSWP (Figure 1c) is the PS-DSWP
#: pipeline with one stage-2 worker.
PARADIGMS: Dict[str, Callable[..., Tuple[str, Build]]] = {
    "Sequential": sequential,
    "DOALL": doall,
    "DOACROSS": doacross,
    "DSWP": lambda workload, system: ps_dswp(workload, system,
                                             stage2_workers=1),
    "PS-DSWP": ps_dswp,
}


def run_workload(workload: Workload, config: Optional[MachineConfig] = None,
                 paradigm: Optional[str] = None, *,
                 interrupts: Optional[InterruptInjector] = None,
                 executor_factory: Optional[Callable[[TMBackend], CoreExecutor]] = None,
                 system_factory: Optional[Callable[[], TMBackend]] = None,
                 backend: Optional[str] = None,
                 sla_enabled: bool = True,
                 manager: Optional[ContentionManager] = None,
                 **options: Any) -> ParadigmResult:
    """Run ``workload`` under ``paradigm`` (default: its Table 1 paradigm).

    ``system_factory`` builds the backend when given; otherwise
    ``backend`` names a backend-table entry (default ``"hmtx"``) built on
    ``config``, and ``sla_enabled`` reaches only factories that take it
    (SLAs are an HMTX-hardware concern).  ``options`` go to the
    paradigm's builder (``workers``, ``stage2_workers``); one it does not
    take raises :class:`TypeError`.

    Every run of every paradigm is built here, so this is also where an
    active instrumentation tap (:mod:`repro.obs.tap`) is handed the
    system and the scheduler before any instruction executes.
    """
    name = paradigm or workload.paradigm
    if name not in PARADIGMS:
        raise ValueError(f"unknown paradigm {name!r}; "
                         f"choose from {sorted(PARADIGMS)}")
    builder = PARADIGMS[name]
    # A bad option fails here, before any backend or tap sees the run.
    inspect.signature(builder).bind(workload, None, **options)
    if system_factory is not None:
        system = system_factory()
    else:
        factory = get_backend(backend or "hmtx")
        kwargs: Dict[str, Any] = {"config": config}
        if "sla_enabled" in inspect.signature(factory).parameters:
            kwargs["sla_enabled"] = sla_enabled
        system = factory(**kwargs)
    if _obs.active is not None:
        _obs.active.attach_system(system)
    workload.setup(system)
    label, build = builder(workload, system, **options)

    executor = executor_factory(system) if executor_factory else None
    scheduler = Scheduler(system, executor=executor, interrupts=interrupts)
    if _obs.active is not None:
        _obs.active.attach_scheduler(scheduler)
    for tid, program in build(0, False).items():
        scheduler.add_thread(tid, core=scheduler.place_core(tid),
                             program=program)
    outcome = run_with_recovery(scheduler, system, workload, build, manager)

    run = scheduler.result()
    result = ParadigmResult(workload.name, label, run.makespan, system, run,
                            outcome.recoveries)
    result.extra["exec_stats"] = scheduler.executor.stats
    result.extra["degraded_serial"] = outcome.serialized
    result.extra["serial_fallback"] = outcome.fallback
    result.extra["contention"] = system.stats.contention
    return result
