"""DSWP / PS-DSWP — multithreaded transactions across pipeline stages."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...backends import TMBackend
from ...cpu.isa import BeginMTX, CommitMTX, Consume, Produce
from ...workloads.base import Workload
from . import base
from .base import (
    Build,
    Program,
    allocate_vid_with_stall,
    spin_until,
    wait_commit_turn,
)


def ps_dswp(workload: Workload, system: TMBackend,
            stage2_workers: Optional[int] = None,
            inline_commit: Optional[bool] = None) -> Tuple[str, Build]:
    """Speculative (PS-)DSWP over multithreaded transactions (Figure 3).

    Pipeline structure on N cores:

    * **stage 1** (1 thread) chases the loop-carried dependence, opening a
      new MTX per iteration and forwarding only the VID through a bounded
      queue; data flows to stage 2 through versioned memory (uncommitted
      value forwarding).
    * **stage 2** (``stage2_workers`` threads) runs the parallel bodies.
      Workers free-run: a core may hold several uncommitted transactions
      at once (the paper's second headline feature) — nobody stalls for a
      commit turn.
    * **stage 3** (1 thread) re-sequences completions, runs each
      iteration's ordered epilogue (in-order output emission) and issues
      the atomic group commit — the sequential tail stage of real DSWP
      pipelines.

    With ``stage2_workers == 1`` (plain DSWP) the one worker runs the
    epilogue + commit itself once its commit turn arrives, and no stage-3
    thread exists.  ``stage2_workers`` alone picks the layout:
    ``inline_commit`` is ignored, and stays in the signature only because
    ``perfbench/tracer.py`` passes it.
    """
    num_cores = system.config.num_cores
    if stage2_workers is None:
        stage2_workers = max(1, num_cores - 2)
    inline_commit = stage2_workers == 1

    VID_QUEUE = "vids"
    DONE_QUEUE = "done"

    def stage1(start_iter: int, serial: bool) -> Program:
        carry = (workload.recover_carry(system, start_iter) if start_iter
                 else workload.initial_carry(system))
        window = 1 if serial else base._MAX_LIVE_TRANSACTIONS
        for i in range(start_iter, workload.iterations):
            yield from spin_until(lambda: len(system.active_vids) < window)
            vid = yield from allocate_vid_with_stall(system)
            yield BeginMTX(vid)
            carry = yield from workload.stage1_iteration(i, carry)
            yield BeginMTX(0)
            yield Produce(VID_QUEUE, (i, vid))
        for _ in range(stage2_workers):
            yield Produce(VID_QUEUE, None)

    def stage2(widx: int) -> Program:
        while True:
            token = yield Consume(VID_QUEUE)
            if token is None:
                if inline_commit:
                    return
                yield Produce(DONE_QUEUE, None)
                return
            i, vid = token
            yield BeginMTX(vid)
            yield from workload.stage2_iteration(i)
            if inline_commit:
                yield from wait_commit_turn(system, vid)
                yield from workload.stage2_epilogue(i)
                yield CommitMTX(vid)
            else:
                yield BeginMTX(0)
                yield Produce(DONE_QUEUE, (i, vid))

    def stage3(start_iter: int) -> Program:
        # Reorder completions back into original program order, then run
        # the ordered epilogue and group-commit each transaction.
        buffered: Dict[int, int] = {}
        sentinels = 0
        for i in range(start_iter, workload.iterations):
            while i not in buffered:
                token = yield Consume(DONE_QUEUE)
                if token is None:
                    sentinels += 1
                    continue
                buffered[token[0]] = token[1]
            vid = buffered.pop(i)
            yield BeginMTX(vid)
            yield from workload.stage2_epilogue(i)
            yield CommitMTX(vid)
        while sentinels < stage2_workers:
            token = yield Consume(DONE_QUEUE)
            if token is None:
                sentinels += 1

    def build(start_iter: int, serial: bool) -> Dict[int, Program]:
        programs: Dict[int, Program] = {0: stage1(start_iter, serial)}
        for w in range(stage2_workers):
            programs[w + 1] = stage2(w)
        if not inline_commit:
            programs[stage2_workers + 1] = stage3(start_iter)
        return programs

    return ("DSWP" if inline_commit else "PS-DSWP"), build
