#!/usr/bin/env python3
"""Paradigm timing (Figure 1) plus the resilience features of section 5.

Part 1 regenerates Figure 1's comparison: DOACROSS pays inter-core latency
every iteration; DSWP pays it once; PS-DSWP replicates the parallel stage.

Part 2 demonstrates the features that make long-running transactions
survive on a real machine:

* interrupts/exceptions during speculation (section 5.2) — handler memory
  accesses carry no VID, so they neither mark lines nor abort anything;
* branch-mispredicted (squashed) loads absorbed by SLAs (section 5.1);
* an explicit ``abortMTX`` with full rollback and re-execution.

Run:  python examples/paradigms_and_resilience.py
"""

from repro.cpu import InterruptInjector
from repro.errors import MisspeculationError
from repro.experiments import format_fig1, run_fig1
from repro.core import HMTXSystem, MachineConfig
from repro.runtime import run_workload
from repro.workloads import LinkedListWorkload


def part1_paradigms():
    print("=== Part 1: Figure 1 — paradigm timing ===\n")
    print(format_fig1(run_fig1(nodes=48, work_cycles=400)))
    print()


def part2_interrupts():
    print("=== Part 2: transactions survive interrupts (section 5.2) ===\n")
    workload = LinkedListWorkload(nodes=32)
    quiet = run_workload(workload, paradigm="PS-DSWP")
    workload2 = LinkedListWorkload(nodes=32)
    noisy = run_workload(
        workload2, paradigm="PS-DSWP",
        interrupts=InterruptInjector(period=2000, handler_accesses=8))
    ok = workload2.observed_result(noisy.system) == \
        workload2.expected_result(noisy.system)
    injector_fired = noisy.cycles > quiet.cycles
    print(f"without interrupts: {quiet.cycles:,} cycles, "
          f"{quiet.system.stats.aborted} aborts")
    print(f"with interrupts   : {noisy.cycles:,} cycles "
          f"({'slower, as expected' if injector_fired else 'unchanged'}), "
          f"{noisy.system.stats.aborted} aborts, "
          f"result {'correct' if ok else 'WRONG'}")
    print("handler accesses carried no VID -> zero misspeculation\n")


def part3_sla():
    print("=== Part 3: squashed loads and SLAs (section 5.1) ===\n")
    from repro.runtime import run_workload
    from repro.workloads import executor_factory_for, make_benchmark

    for enabled, label in [(True, "SLA enabled "), (False, "SLA disabled")]:
        workload = make_benchmark("186.crafty")   # 5.59% mispredict rate
        result = run_workload(workload, sla_enabled=enabled,
                              executor_factory=executor_factory_for(workload))
        stats = result.system.stats
        print(f"{label}: {stats.aborted} aborts "
              f"({stats.false_aborts_triggered} false), "
              f"{stats.false_aborts_avoided} false aborts avoided, "
              f"{result.cycles:,} cycles")
    print("without SLAs, squashed wrong-path loads mark cache lines and "
          "logically-earlier\nstores abort spuriously — for 130.li (22.5 "
          "avoided aborts per TX in Table 1) the\nno-SLA system cannot even "
          "make forward progress\n")


def part4_explicit_abort():
    print("=== Part 4: abortMTX and rollback ===\n")
    system = HMTXSystem(MachineConfig(num_cores=2))
    system.thread(0, core=0)
    system.hierarchy.memory.write_word(0x5000, 777)
    vid = system.allocate_vid()
    system.begin_mtx(0, vid)
    system.store(0, 0x5000, 0)
    system.output(0, "speculative print that must never appear")
    print(f"inside the transaction, 0x5000 reads "
          f"{system.load(0, 0x5000)[0]}")
    try:
        system.abort_mtx(0, vid)     # control-flow misspeculation detected
    except MisspeculationError as err:
        print(f"abortMTX -> {err}")
    print(f"after rollback, 0x5000 reads "
          f"{system.load(0, 0x5000)[0]} and "
          f"{len(system.committed_output)} buffered outputs escaped")


if __name__ == "__main__":
    part1_paradigms()
    part2_interrupts()
    part3_sla()
    part4_explicit_abort()
