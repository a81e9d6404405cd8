"""Property-based test: HMTX preserves original sequential semantics.

Hypothesis generates random transactions (each a short list of reads and
writes over a small address pool, pinned to a core) and a random
interleaving of their operations.  Executing the interleaving through the
versioned hierarchy must either

* complete, with every load returning exactly the value the *sequential*
  (VID-ordered) execution produces, and the committed memory state matching
  the sequential final state; or
* raise a misspeculation, after which flushing and re-executing the
  remaining transactions one-by-one still yields the sequential state.

This is the informal argument of section 4.3 turned into an executable
specification, exercised across flow, anti and output dependences in every
order the scheduler could produce.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.coherence import MemoryHierarchy
from repro.core.config import MachineConfig
from repro.errors import MisspeculationError

POOL = [0x1000 + i * 64 for i in range(4)]
NUM_CORES = 3
#: Small caches: examples build hundreds of hierarchies, and a Table 2
#: sized L2 would dominate runtime without adding coverage here.
CONFIG = dict(num_cores=NUM_CORES, l1_size=16 * 64, l1_assoc=4,
              l2_size=128 * 64, l2_assoc=8)


@dataclass(frozen=True)
class TxOp:
    is_write: bool
    addr: int
    value: int


transactions = st.lists(
    st.lists(
        st.builds(
            TxOp,
            is_write=st.booleans(),
            addr=st.sampled_from(POOL),
            value=st.integers(min_value=1, max_value=1_000_000),
        ),
        min_size=1, max_size=5,
    ),
    min_size=1, max_size=5,
)

interleave_seed = st.randoms(use_true_random=False)


def sequential_reference(txs: List[List[TxOp]]) -> Tuple[Dict[int, int], List[int]]:
    """Execute transactions in VID order; return (memory, load values)."""
    memory: Dict[int, int] = {addr: 0 for addr in POOL}
    loads: List[int] = []
    for ops in txs:
        for op in ops:
            if op.is_write:
                memory[op.addr] = op.value
            else:
                loads.append(memory[op.addr])
    return memory, loads


def committed_state(hierarchy: MemoryHierarchy) -> Dict[int, int]:
    return {addr: hierarchy.load(0, addr, 0)[0] for addr in POOL}


@settings(max_examples=120, deadline=None)
@given(txs=transactions, rng=interleave_seed)
def test_any_interleaving_preserves_sequential_semantics(txs, rng):
    hierarchy = MemoryHierarchy(MachineConfig(**CONFIG))
    expected_memory, expected_loads = sequential_reference(txs)

    cursors = [0] * len(txs)        # next op index per transaction
    cores = [i % NUM_CORES for i in range(len(txs))]
    vids = list(range(1, len(txs) + 1))
    observed_loads: Dict[Tuple[int, int], int] = {}  # (tx, op) -> value
    aborted = False

    while True:
        live = [t for t in range(len(txs)) if cursors[t] < len(txs[t])]
        if not live:
            break
        t = rng.choice(live)
        op = txs[t][cursors[t]]
        try:
            if op.is_write:
                hierarchy.store(cores[t], op.addr, vids[t], op.value)
            else:
                value, _ = hierarchy.load(cores[t], op.addr, vids[t])
                observed_loads[(t, cursors[t])] = value
            cursors[t] += 1
        except MisspeculationError:
            aborted = True
            hierarchy.abort()
            break
        hierarchy.check_invariants()

    if not aborted:
        # Group-commit in VID order; then state must equal sequential.
        for vid in vids:
            hierarchy.commit(vid)
        # Every load observed the sequential value at its program point.
        seq_memory = {addr: 0 for addr in POOL}
        load_index = 0
        for t, ops in enumerate(txs):
            for i, op in enumerate(ops):
                if op.is_write:
                    seq_memory[op.addr] = op.value
                else:
                    assert observed_loads[(t, i)] == seq_memory[op.addr], \
                        f"tx {t} op {i} read wrong version"
                    load_index += 1
    else:
        # Recovery: re-execute every uncommitted transaction sequentially
        # (the abort flushed all speculative state; VIDs are reused).
        for t, ops in enumerate(txs):
            vid = t + 1
            for op in ops:
                if op.is_write:
                    hierarchy.store(cores[t], op.addr, vid, op.value)
                else:
                    hierarchy.load(cores[t], op.addr, vid)
            hierarchy.commit(vid)

    assert committed_state(hierarchy) == expected_memory
    hierarchy.check_invariants()


@settings(max_examples=60, deadline=None)
@given(txs=transactions, rng=interleave_seed)
def test_interleaving_with_interludes_of_commits(txs, rng):
    """Like the above, but commits happen as soon as a transaction finishes
    and every predecessor committed — the pipelined-commit pattern."""
    hierarchy = MemoryHierarchy(MachineConfig(**CONFIG))
    expected_memory, _ = sequential_reference(txs)

    cursors = [0] * len(txs)
    cores = [i % NUM_CORES for i in range(len(txs))]
    committed = 0

    def try_commits():
        nonlocal committed
        while committed < len(txs) and cursors[committed] >= len(txs[committed]):
            hierarchy.commit(committed + 1)
            committed += 1

    aborted = False
    while committed < len(txs):
        live = [t for t in range(len(txs)) if cursors[t] < len(txs[t])]
        if not live:
            try_commits()
            continue
        t = rng.choice(live)
        op = txs[t][cursors[t]]
        try:
            if op.is_write:
                hierarchy.store(cores[t], op.addr, t + 1, op.value)
            else:
                hierarchy.load(cores[t], op.addr, t + 1)
            cursors[t] += 1
            try_commits()
        except MisspeculationError:
            aborted = True
            hierarchy.abort()
            break

    if aborted:
        for t in range(committed, len(txs)):
            for op in txs[t]:
                if op.is_write:
                    hierarchy.store(cores[t], op.addr, t + 1, op.value)
                else:
                    hierarchy.load(cores[t], op.addr, t + 1)
            hierarchy.commit(t + 1)

    assert committed_state(hierarchy) == expected_memory
