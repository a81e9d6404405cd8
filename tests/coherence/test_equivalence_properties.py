"""Equivalence properties between implementation variants.

1. **Lazy == eager**: deferring commit/abort processing to the next touch
   (section 5.3) must be observationally equivalent to processing every
   line immediately at each broadcast.
2. **Snoopy == directory**: the interconnect organisation changes timing
   and message counts, never values, conflicts, or committed state.

Both are checked on random operation sequences with interleaved commits
and aborts.
"""

from dataclasses import dataclass
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence import MemoryHierarchy
from repro.coherence.directory import DirectoryHierarchy
from repro.core.config import MachineConfig
from repro.errors import MisspeculationError

POOL = [0x2000 + i * 64 for i in range(4)]
SMALL = dict(l1_size=16 * 64, l1_assoc=4, l2_size=128 * 64, l2_assoc=8)


@dataclass(frozen=True)
class Op:
    kind: str          # "load" | "store" | "commit" | "abort"
    core: int = 0
    addr: int = 0
    vid: int = 0
    value: int = 0


def op_sequence():
    """Random op streams with in-order commits woven in."""

    @st.composite
    def build(draw):
        ops: List[Op] = []
        next_commit = 1
        highest_begun = 0
        for _ in range(draw(st.integers(min_value=1, max_value=14))):
            choice = draw(st.integers(min_value=0, max_value=9))
            core = draw(st.integers(min_value=0, max_value=2))
            addr = draw(st.sampled_from(POOL))
            if choice <= 3:
                vid = draw(st.integers(min_value=next_commit,
                                       max_value=next_commit + 3))
                highest_begun = max(highest_begun, vid)
                ops.append(Op("load", core, addr, vid))
            elif choice <= 7:
                vid = draw(st.integers(min_value=next_commit,
                                       max_value=next_commit + 3))
                highest_begun = max(highest_begun, vid)
                ops.append(Op("store", core, addr, vid,
                              draw(st.integers(min_value=1, max_value=999))))
            elif choice == 8 and next_commit <= highest_begun:
                ops.append(Op("commit", vid=next_commit))
                next_commit += 1
            else:
                ops.append(Op("abort"))
        return ops

    return build()


def run_ops(hierarchy, ops: List[Op], eager: bool = False) -> List[Optional[int]]:
    """Execute ops; returns observed values (None for non-loads/conflicts).

    After an abort (explicit or conflict-triggered) the uncommitted VIDs
    restart; for simplicity the stream just continues — both systems under
    comparison see the identical stream either way.
    """
    observed: List[Optional[int]] = []
    committed_through = 0
    for op in ops:
        if op.kind == "commit":
            if op.vid == committed_through + 1:
                hierarchy.commit(op.vid)
                committed_through = op.vid
            observed.append(None)
        elif op.kind == "abort":
            hierarchy.abort()
            observed.append(None)
        else:
            try:
                if op.kind == "load":
                    observed.append(hierarchy.load(op.core, op.addr, op.vid)[0])
                else:
                    hierarchy.store(op.core, op.addr, op.vid, op.value)
                    observed.append(-1)
            except MisspeculationError:
                hierarchy.abort()
                observed.append(-2)     # conflict marker
        if eager:
            for cache in hierarchy._caches:
                for slot in list(cache.resident_slots()):
                    cache._process_lazy_slot(slot)
    return observed


def final_state(hierarchy):
    return {addr: hierarchy.load(0, addr, 0)[0] for addr in POOL}


@settings(max_examples=120, deadline=None)
@given(ops=op_sequence())
def test_lazy_equals_eager(ops):
    lazy = MemoryHierarchy(MachineConfig(num_cores=3, **SMALL))
    eager = MemoryHierarchy(MachineConfig(num_cores=3, **SMALL))
    lazy_observed = run_ops(lazy, ops, eager=False)
    eager_observed = run_ops(eager, ops, eager=True)
    assert lazy_observed == eager_observed
    assert final_state(lazy) == final_state(eager)


@settings(max_examples=120, deadline=None)
@given(ops=op_sequence())
def test_snoopy_equals_directory(ops):
    snoopy = MemoryHierarchy(MachineConfig(num_cores=3, **SMALL))
    directory = DirectoryHierarchy(MachineConfig(num_cores=3, **SMALL))
    assert run_ops(snoopy, ops) == run_ops(directory, ops)
    assert final_state(snoopy) == final_state(directory)
    directory.check_directory_invariant()


@settings(max_examples=60, deadline=None)
@given(ops=op_sequence())
def test_unbounded_sets_preserve_values(ops):
    """The overflow table changes *where* versions live, never what a VID
    observes (on caches so tiny that spills are routine)."""
    tiny = dict(l1_size=2 * 64, l1_assoc=2, l2_size=4 * 64, l2_assoc=4)
    reference = MemoryHierarchy(MachineConfig(num_cores=3, **SMALL))
    spilling = MemoryHierarchy(MachineConfig(num_cores=3,
                                             unbounded_sets=True, **tiny))
    assert run_ops(reference, ops) == run_ops(spilling, ops)
    assert final_state(reference) == final_state(spilling)


@settings(max_examples=120, deadline=None)
@given(ops=op_sequence())
def test_version_count_is_a_pure_versions_length(ops):
    """``version_count`` (what protocol tracers read) and
    ``read_committed`` (what result checks read) must not process
    anything themselves; ``version_count`` must predict what lazy
    processing keeps, and ``resolved`` the tags it leaves."""
    hierarchy = MemoryHierarchy(MachineConfig(num_cores=3, **SMALL))
    run_ops(hierarchy, ops)
    caches = hierarchy._caches

    def untouched():
        return [(cache.stats.lazy_commits_processed,
                 cache.stats.lazy_aborts_processed,
                 cache._tick, list(cache._store.lru_tick))
                for cache in caches]

    before = untouched()
    committed = {addr: hierarchy.read_committed(addr) for addr in POOL}
    assert untouched() == before
    for addr in POOL:
        before = [cache.stats.lazy_commits_processed
                  + cache.stats.lazy_aborts_processed
                  for cache in caches]
        count = hierarchy.version_count(addr)
        assert before == [cache.stats.lazy_commits_processed
                          + cache.stats.lazy_aborts_processed
                          for cache in caches]
        for cache in caches:
            store = cache._store
            predicted = {slot: cache.resolved(slot) for slot in
                         cache._by_base.get(cache.line_addr(addr), ())}
            kept = {line.slot for line in cache.versions(addr)}
            assert predicted == {
                slot: (store.state[slot], store.mod_vid[slot],
                       store.high_vid[slot]) if slot in kept else None
                for slot in predicted}
        assert count == len(hierarchy.versions_everywhere(addr))
    assert committed == final_state(hierarchy)
