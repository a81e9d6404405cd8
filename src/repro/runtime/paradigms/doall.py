"""DOALL — TLS-style: one single-threaded transaction per iteration."""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from ...backends import TMBackend
from ...core.config import MachineConfig
from ...cpu.core_model import CoreExecutor
from ...cpu.interrupts import InterruptInjector
from ...cpu.isa import BeginMTX, CommitMTX
from ...txctl import ContentionManager
from ...workloads.base import Workload
from . import base
from .base import (
    ParadigmResult,
    Program,
    build_result,
    fresh_system,
    make_scheduler,
    run_with_recovery,
    spin_until,
    wait_commit_turn,
    wait_for_epoch,
)
from .registry import register_paradigm


@register_paradigm("DOALL")
def run_doall(workload: Workload, config: Optional[MachineConfig] = None,
              workers: Optional[int] = None,
              interrupts: Optional[InterruptInjector] = None,
              sla_enabled: bool = True,
              executor_factory: Optional[Callable[[TMBackend], CoreExecutor]] = None,
              system_factory: Optional[Callable[[], TMBackend]] = None,
              manager: Optional[ContentionManager] = None,
              backend: Optional[str] = None,
              ) -> ParadigmResult:
    """Speculative DOALL: iteration ``i`` runs on thread ``i % workers``.

    VIDs are assigned statically in iteration order
    (``vid = i % max_vid + 1``); commits are made in order by spinning on
    the commit turn, and epochs recycle the VID space.
    """
    system = fresh_system(config, sla_enabled,
                          system_factory=system_factory, backend=backend)
    workload.setup(system)
    workers = workers or system.config.num_cores
    max_vid = system.vid_space.max_vid

    def worker(widx: int, start: int, serial: bool) -> Program:
        # Run iteration bodies eagerly (several uncommitted transactions
        # may live on one core); epilogue + commit happen in VID order.
        # In serial (degraded) mode each body waits for its commit turn
        # before starting, so only one transaction is ever in flight.
        pending = deque()
        todo = [i for i in range(start, workload.iterations)
                if i % workers == widx]
        cursor = 0
        while cursor < len(todo) or pending:
            if pending and system.last_committed == pending[0][1] - 1:
                i, vid = pending.popleft()
                yield BeginMTX(vid)
                yield from workload.stage2_epilogue(i)
                yield CommitMTX(vid)
                continue
            if cursor < len(todo) and len(pending) < base._MAX_OPEN_TX_PER_CORE:
                i = todo[cursor]
                epoch, vid0 = divmod(i, max_vid)
                vid = vid0 + 1
                if system.vid_space.resets < epoch and pending:
                    # Cannot cross an epoch boundary with open
                    # transactions: wait for the next commit turn or the
                    # reset.
                    head = pending[0][1]
                    yield from spin_until(
                        lambda: system.last_committed == head - 1
                        or system.vid_space.resets >= epoch)
                    continue
                yield from wait_for_epoch(system, epoch)
                if serial:
                    yield from wait_commit_turn(system, vid)
                yield BeginMTX(vid)
                yield from workload.doall_iteration(i)
                yield BeginMTX(0)
                pending.append((i, vid))
                cursor += 1
                continue
            # Window full (or iterations exhausted): wait for the oldest
            # open transaction's commit turn.
            head = pending[0][1]
            yield from spin_until(lambda: system.last_committed == head - 1)

    def build(start: int = 0, serial: bool = False) -> Dict[int, Program]:
        return {w: worker(w, start, serial) for w in range(workers)}

    scheduler = make_scheduler(system, interrupts, executor_factory)
    for w, program in build().items():
        scheduler.add_thread(w, core=scheduler.place_core(w), program=program)
    outcome = run_with_recovery(
        scheduler, system, workload,
        lambda serial=False: build(system.stats.committed, serial),
        manager=manager)
    return build_result(workload, "DOALL", system, scheduler, outcome)
