#!/usr/bin/env python3
"""Quickstart: drive the HMTX system directly through its ISA-level API.

Recreates the paper's running example (Figures 3 and 5): a linked-list
traversal where a *multithreaded transaction* spans two threads — the first
thread chases pointers and forwards each node through versioned memory; the
second does the work and group-commits.

Run:  python examples/quickstart.py
"""

from repro.core import HMTXSystem, MachineConfig
from repro.experiments import format_fig5, run_fig5

NODE_REGION = 0x10_0000
PRODUCED_NODE = 0x2000       # the shared, versioned forwarding slot
NUM_NODES = 6


def build_list(system):
    """Lay out a linked list in simulated memory: next at +0, value at +8."""
    memory = system.hierarchy.memory
    for i in range(NUM_NODES):
        node = NODE_REGION + i * 64
        nxt = node + 64 if i + 1 < NUM_NODES else 0
        memory.write_word(node, nxt)
        memory.write_word(node + 8, 10 * (i + 1))
    return NODE_REGION


def main():
    system = HMTXSystem(MachineConfig(num_cores=2))
    stage1, stage2 = 0, 1
    system.thread(stage1, core=0)
    system.thread(stage2, core=1)
    node = build_list(system)

    print("=== Speculative DSWP over multithreaded transactions ===\n")
    total = 0
    vid_queue = []               # the produceVID/consumeVID channel

    # --- Stage 1: pointer chasing.  Each iteration opens a fresh MTX,
    # stores the node into the versioned producedNode slot, and moves on
    # WITHOUT committing (beginMTX(0) just leaves the transaction).
    while node:
        vid = system.allocate_vid()
        system.begin_mtx(stage1, vid)
        system.store(stage1, PRODUCED_NODE, node)      # one speculative store
        node = system.load(stage1, node)[0]         # node = node->next
        system.begin_mtx(stage1, 0)
        vid_queue.append(vid)
    print(f"stage 1 opened {len(vid_queue)} transactions "
          f"(all uncommitted, all with a private version of producedNode)")

    # --- Stage 2: the work function.  It re-enters each transaction by
    # VID; the versioned memory hands it that transaction's node pointer
    # (uncommitted value forwarding), and commitMTX atomically publishes
    # everything both threads did under that VID.
    for vid in vid_queue:
        system.begin_mtx(stage2, vid)
        node_ptr = system.load(stage2, PRODUCED_NODE)[0]
        value = system.load(stage2, node_ptr + 8)[0]
        total += value
        system.store(stage2, node_ptr + 16, value * 2)  # work() output
        system.commit_mtx(stage2, vid)
    print(f"stage 2 committed them in order; sum of node values = {total}")
    assert total == sum(10 * (i + 1) for i in range(NUM_NODES))

    stats = system.stats
    print(f"\nper-transaction read/write sets (cache-line granular):")
    for tx in stats.transactions[:3]:
        print(f"  VID {tx.vid}: read {tx.read_set_bytes} B, "
              f"write {tx.write_set_bytes} B, {tx.spec_accesses} accesses")
    print(f"aborts: {stats.aborted} (speculation held)")

    print("\n=== Figure 5: cache-state walkthrough of one address ===\n")
    print(format_fig5(run_fig5()))


if __name__ == "__main__":
    main()
