"""DOACROSS — the loop carry crosses cores every iteration (Figure 1b)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...backends import TMBackend
from ...cpu.isa import BeginMTX, CommitMTX, Consume, Produce
from ...workloads.base import Workload
from .base import Build, Program, wait_commit_turn, wait_for_epoch


def doacross(workload: Workload, system: TMBackend,
             workers: Optional[int] = None) -> Tuple[str, Build]:
    """Speculative DOACROSS: the carry crosses cores every iteration.

    Thread ``i % workers`` runs the *whole* body of iteration ``i``,
    receiving the loop-carried register state from the previous iteration's
    thread through a timed queue — inter-core latency lands on every
    iteration's critical path (Figure 1b, section 2.1).
    """
    workers = workers or system.config.num_cores
    max_vid = system.vid_space.max_vid

    def carry_queue(iteration: int) -> str:
        return f"carry[{iteration % workers}]"

    def worker(widx: int, start: int, serial: bool) -> Program:
        first = start + (widx - start) % workers
        for i in range(first, workload.iterations, workers):
            if i == start:
                carry = (workload.recover_carry(system, i) if start
                         else workload.initial_carry(system))
            else:
                carry = yield Consume(carry_queue(i))
            epoch, vid0 = divmod(i, max_vid)
            vid = vid0 + 1
            yield from wait_for_epoch(system, epoch)
            if serial:
                yield from wait_commit_turn(system, vid)
            yield BeginMTX(vid)
            carry = yield from workload.sequential_iteration(i, carry)
            yield BeginMTX(0)
            if i + 1 < workload.iterations:
                yield Produce(carry_queue(i + 1), carry)
            yield from wait_commit_turn(system, vid)
            yield CommitMTX(vid)

    def build(start: int, serial: bool) -> Dict[int, Program]:
        return {w: worker(w, start, serial) for w in range(workers)}

    return "DOACROSS", build
