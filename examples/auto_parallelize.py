#!/usr/bin/env python3
"""Automatic speculative parallelization — the paper's closing argument.

"A compiler could achieve profitable automatic speculative parallelization
with the help of low overhead speculation validation via HMTX."  (§8)

This example feeds a hot loop to the compiler in `repro.compiler`:

1. the loop is described as statements over symbolic locations — a pointer
   chase, a table lookup with a *rare* cross-iteration write (2% of
   iterations per the profile), heavy per-element processing, and an
   in-order output reduction;
2. the compiler builds the dependence graph, speculates the 2% dependence
   away, condenses SCCs, and emits a 3-stage PS-DSWP pipeline;
3. the generated code runs on HMTX (maximal hardware validation — no
   compiler-inserted checks), on SMTX with the same maximal validation a
   compiler would need, and sequentially;
4. a second input makes the speculated dependence *manifest*: HMTX detects
   it, aborts, recovers from committed state, and the result still matches
   the interpreter.

Run:  python examples/auto_parallelize.py
"""

from repro.compiler import Loop, compile_loop, plan_pipeline
from repro.runtime import run_workload
from repro.smtx import ValidationMode, run_smtx


def build_loop(iterations: int = 40, manifest: bool = False) -> Loop:
    loop = Loop("dedup-scan", iterations=iterations)
    loop.scalar("cursor", init=11)        # irregular pointer chase
    loop.scalar("dedup_table", init=1)    # rarely updated shared structure
    loop.array("record")
    loop.array("aux_a")
    loop.array("aux_b")
    loop.array("digest")
    loop.scalar("journal")                # in-order output accumulator

    loop.statement(
        "advance", reads=("cursor",), writes=("cursor",),
        compute=lambda i, env: {"cursor": (env["cursor"] * 131 + 17) % 65536},
        work=20, branches=3)
    loop.statement(
        "load_record", reads=("cursor",), writes=("record", "aux_a", "aux_b"),
        compute=lambda i, env: {"record": env["cursor"] ^ (i * 259),
                                "aux_a": (env["cursor"] * 7) & 0xFFFF,
                                "aux_b": (env["cursor"] >> 3) & 0xFFFF},
        work=15, branches=1)

    def digest(i, env):
        mixed = env["record"] * 2654435761 + env["aux_a"] * 31 + env["aux_b"]
        out = {"digest": (mixed + env["dedup_table"]) & 0xFFFFFF}
        if manifest and i % 9 == 8:
            # The profile said 2%; on this input the write really happens.
            out["dedup_table"] = (env["dedup_table"] + 1) & 0xFF
        return out

    loop.statement(
        "digest", reads=("record", "aux_a", "aux_b", "dedup_table"),
        writes=("digest",), maybe_writes={"dedup_table": 0.02},
        compute=digest, work=160, branches=8)
    loop.statement(
        "journal", reads=("journal", "digest"), writes=("journal",),
        compute=lambda i, env: {
            "journal": (env["journal"] * 33 + env["digest"]) & 0xFFFFFFFF},
        ordered=True, work=60, branches=2)
    return loop


def main() -> None:
    print("=== Compiling the loop ===\n")
    loop = build_loop()
    plan = plan_pipeline(loop, speculation_threshold=0.1)
    print(plan.describe())

    print("\n=== Running the generated pipeline ===\n")
    seq = run_workload(compile_loop(build_loop()), paradigm="Sequential")
    rows = [("Sequential", seq, compile_loop(build_loop()))]
    hmtx_workload = compile_loop(build_loop())
    rows.append(("Auto-parallel on HMTX",
                 run_workload(hmtx_workload, paradigm="PS-DSWP"),
                 hmtx_workload))
    smtx_workload = compile_loop(build_loop())
    rows.append(("Auto-parallel on SMTX (max val.)",
                 run_smtx(smtx_workload, mode=ValidationMode.MAXIMAL),
                 smtx_workload))
    for label, result, workload in rows:
        ok = workload.observed_result(result.system) == \
            workload.expected_result(result.system)
        print(f"{label:34s} {result.cycles:>9,} cycles  "
              f"speedup {seq.cycles / result.cycles:4.2f}x  "
              f"{'correct' if ok else '*** WRONG ***'}")

    print("\n=== The speculated dependence manifests ===\n")
    workload = compile_loop(build_loop(manifest=True))
    result = run_workload(workload, paradigm="PS-DSWP")
    ok = workload.observed_result(result.system) == \
        workload.expected_result(result.system)
    print(f"aborts: {result.system.stats.aborted}, "
          f"recoveries: {result.recoveries}, "
          f"degraded to serial: {result.extra['degraded_serial']}, "
          f"result {'correct' if ok else 'WRONG'}")
    print("\nHMTX validated the compiler's speculation in hardware: the rare")
    print("writes were caught, rolled back, and re-executed — no compiler-")
    print("inserted checks, no expert tuning of read/write sets.")


if __name__ == "__main__":
    main()
