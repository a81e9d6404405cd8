#!/usr/bin/env python3
"""A guided tour of the HMTX protocol, mechanism by mechanism.

Each stop drives the real memory system through one of the paper's
mechanisms and shows the cache states and protocol events involved:

  1. versioned memory & hit windows       (section 4.1, Figure 4)
  2. the three dependence cases           (section 4.3)
  3. lazy commit processing               (section 5.3, Figure 6)
  4. abort and rollback                   (Figure 7)
  5. non-speculative overflow & retrieval (section 5.4)
  6. VID exhaustion and reset             (section 4.6)

Run:  python examples/protocol_tour.py
"""

from repro.core.config import MachineConfig
from repro.errors import MisspeculationError
from repro.obs.trace import ProtocolTracer, format_address_history

ADDR = 0xA000


def show(hierarchy, label):
    versions = ", ".join(
        f"{cache}:{line.state}({line.mod_vid},{line.high_vid})"
        for cache, line in hierarchy.versions_everywhere(ADDR)) or "(uncached)"
    print(f"  {label:44s} {versions}")


def stop1_versioned_memory():
    print("\n[1] Versioned memory: three versions of one address\n")
    h = MachineConfig(num_cores=2).build_hierarchy()
    h.memory.write_word(ADDR, 100)
    show(h, "initially")
    h.load(0, ADDR, 1)
    show(h, "VID 1 reads (clean line -> S-E, marked)")
    h.store(0, ADDR, 1, 111)
    show(h, "VID 1 writes (backup S-O + new S-M)")
    h.store(0, ADDR, 2, 222)
    show(h, "VID 2 writes (another version stacks)")
    for vid, expected in ((0, 100), (1, 111), (2, 222), (5, 222)):
        value = h.load(1, ADDR, vid)[0]
        print(f"    a VID-{vid} read sees {value}  (expected {expected})")


def stop2_dependences():
    print("\n[2] Dependence enforcement (section 4.3)\n")
    h = MachineConfig(num_cores=2).build_hierarchy()
    h.store(0, ADDR, 2, 42)
    print(f"  flow:   store@2 then load@5 forwards -> "
          f"{h.load(1, ADDR, 5)[0]}")
    h2 = MachineConfig(num_cores=2).build_hierarchy()
    h2.memory.write_word(ADDR, 7)
    h2.load(0, ADDR, 2)
    h2.store(1, ADDR, 5, 99)
    print(f"  anti:   load@2 then store@5 is safe; VID 2 still sees "
          f"{h2.load(0, ADDR, 2)[0]}")
    h3 = MachineConfig(num_cores=2).build_hierarchy()
    h3.load(0, ADDR, 5)
    try:
        h3.store(1, ADDR, 2, 1)
        print("  raw:    MISSED (bug!)")
    except MisspeculationError as err:
        print(f"  raw:    load@5 then store@2 aborts -> {err.reason}")


def stop3_lazy_commit():
    print("\n[3] Lazy commit: O(1) broadcast, per-line processing at touch\n")
    h = MachineConfig(num_cores=2).build_hierarchy()
    for i in range(4):
        h.store(0, ADDR + 64 * i, 1, i)
    latency = h.commit(1)
    print(f"  commit broadcast cost: {latency} cycles for a 4-line write set")
    raw_states = [str(line.state) for line in h.l1s[0].all_lines()]
    print(f"  raw line states right after commit: {raw_states} (still S-M!)")
    h.load(1, ADDR, 0)
    show(h, "after the next touch, the line is plain")


def stop4_abort():
    print("\n[4] Abort: doomed versions die, real data survives\n")
    h = MachineConfig(num_cores=2).build_hierarchy()
    h.memory.write_word(ADDR, 100)
    h.load(0, ADDR, 1)
    h.store(0, ADDR, 1, 111)
    show(h, "before abort")
    h.abort()
    h.load(1, ADDR, 0)
    show(h, "after abort + touch")
    print(f"    committed value preserved: {h.load(1, ADDR, 0)[0]}")


def stop5_overflow():
    print("\n[5] Section 5.4: the non-speculative backup may overflow\n")
    h = MachineConfig(num_cores=2, l1_size=2 * 64, l1_assoc=2,
                      l2_size=8 * 64, l2_assoc=4).build_hierarchy()
    h.memory.write_word(ADDR, 100)
    h.load(0, ADDR, 1)
    h.store(0, ADDR, 2, 222)          # S-O(0,2) backup + S-M(2,2)
    i = 0
    while h.stats.nonspec_overflows == 0 and i < 64:
        h.store(0, 0x50000 + i * 256, 2, i)   # pressure the sets
        i += 1
    print(f"  backup evicted to memory after {i} competing stores")
    value = h.load(1, ADDR, 1)[0]
    print(f"  a VID-1 read still finds version 0 data: {value} "
          f"(retrievals: {h.stats.overflow_retrievals})")


def stop6_vid_reset():
    print("\n[6] VID exhaustion and reset (m = 2 bits -> 3 usable VIDs)\n")
    h = MachineConfig(num_cores=1, vid_bits=2).build_hierarchy()
    for vid in (1, 2, 3):
        h.store(0, ADDR + 64 * vid, vid, vid * 10)
        h.commit(vid)
    print("  all 3 VIDs used and committed; resetting")
    h.vid_reset()
    h.store(0, ADDR, 1, 999)          # VID 1 of the new epoch
    h.commit(1)
    print(f"  new epoch's VID 1 works: {h.load(0, ADDR, 0)[0]}")
    print(f"  old epoch's data intact: {h.load(0, ADDR + 64, 0)[0]}")


def stop7_trace():
    print("\n[7] The same story, as a protocol trace\n")
    h = MachineConfig(num_cores=2).build_hierarchy()
    tracer = ProtocolTracer.attach(h, addresses={ADDR})
    h.load(0, ADDR, 1)
    h.store(0, ADDR, 1, 1)
    h.load(1, ADDR, 2)
    h.commit(1)
    print(format_address_history(tracer.events, ADDR))
    tracer.detach()


if __name__ == "__main__":
    stop1_versioned_memory()
    stop2_dependences()
    stop3_lazy_commit()
    stop4_abort()
    stop5_overflow()
    stop6_vid_reset()
    stop7_trace()
    print("\ntour complete — every mechanism above is exercised by the "
          "test suite in tests/coherence/.")
