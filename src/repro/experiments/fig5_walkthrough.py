"""Figure 5: the worked example — two threads, one address, three versions.

Replays the paper's instruction sequence against the real protocol and
records the cache state of the traced address after every instruction,
exactly as Figure 5's right-hand column does:

====  =======================  ==========================================
step  instruction              expected versions (state, modVID, highVID)
====  =======================  ==========================================
0     initial                  (none cached)
1     T1: beginMTX(1); load    S-E(0,1)
2     T1: store (VID 1)        S-O(0,1), S-M(1,1)
3     T1: beginMTX(2); store   S-O(0,1), S-O(1,2), S-M(2,2)
4     T2: beginMTX(1); load    ... + shared copy of the (1,2) version
5     T2: commitMTX(1)         (1,2)-version's data becomes architectural
====  =======================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.config import MachineConfig
from ..core.system import HMTXSystem

#: The traced address ("0xa" in the paper's figure).
ADDR = 0xA000
NEXT_PTR = 0xB000


@dataclass
class WalkStep:
    step: int
    description: str
    loaded_value: int
    #: (cache, state, modVID, highVID) for every cached version of ADDR.
    versions: List[Tuple[str, str, int, int]] = field(default_factory=list)


def _snapshot(system: HMTXSystem) -> List[Tuple[str, str, int, int]]:
    out = []
    for cache_name, line in system.hierarchy.versions_everywhere(ADDR):
        out.append((cache_name, str(line.state), line.mod_vid, line.high_vid))
    return sorted(out)


def run_fig5() -> List[WalkStep]:
    """Execute the Figure 5 sequence; returns the per-step cache states."""
    system = HMTXSystem(MachineConfig(num_cores=2))
    system.thread(1, core=0)   # "Thread 1" of the figure
    system.thread(2, core=1)   # "Thread 2"
    memory = system.hierarchy.memory
    memory.write_word(ADDR, NEXT_PTR)
    memory.write_word(NEXT_PTR, 0xC000)
    steps: List[WalkStep] = []

    def record(step: int, description: str, value: int = 0) -> None:
        steps.append(WalkStep(step, description, value, _snapshot(system)))

    record(0, "initial state")
    # next-iteration thread, VID 1: r1 = M[0xa]
    system.vid_space.allocate()
    system.begin_mtx(1, 1)
    value, _ = system.load(1, ADDR)
    record(1, "T1 beginMTX(1); r1 = M[0xa]", value)
    # M[0xa] = M[r1]: advance the list head (speculative store, VID 1).
    system.store(1, ADDR, system.load(1, value)[0])
    record(2, "T1 M[0xa] = M[r1] (VID 1)")
    # Same thread moves on to VID 2 and repeats.
    system.vid_space.allocate()
    system.begin_mtx(1, 2)
    head, _ = system.load(1, ADDR)
    system.store(1, ADDR, system.load(1, head)[0])
    record(3, "T1 beginMTX(2); M[0xa] = M[r1] (VID 2)")
    system.begin_mtx(1, 0)
    # Work thread continues transaction 1 on the other core.
    system.begin_mtx(2, 1)
    value, _ = system.load(2, ADDR)
    record(4, "T2 beginMTX(1); r1 = M[0xa]", value)
    system.commit_mtx(2, 1)
    record(5, "T2 commitMTX(1)")
    return steps


def format_fig5(steps: List[WalkStep]) -> str:
    lines = ["Figure 5 walkthrough: versions of 0x%x per step" % ADDR]
    for step in steps:
        versions = ", ".join(
            f"{cache}:{state}({mod},{high})"
            for cache, state, mod, high in step.versions) or "(none)"
        lines.append(f"  {step.step}: {step.description:38s} -> {versions}")
    return "\n".join(lines)
