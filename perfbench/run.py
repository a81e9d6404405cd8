"""Layered benchmark of the HMTX simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 20 --trace 0

Workloads: fig8, contention, svc, sweep (see ``layers.json``).  With
``--trace 0`` the run sets up, then repeats the workload's batch for
``--seconds`` seconds and reports the end-to-end metrics, host times
scaled to a reference host speed (see ``reference.py``); with
``--trace 1`` it alternates untraced and traced passes for ``--seconds``
seconds and reports the per-layer metrics.  Every run is checked for a
correct result and for a record identical to every other run of the same
request.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Spans of the last traced pass are written here (inside the checkout).
TRACE_DIR = os.path.join(ROOT, ".perfbench")
#: Fewest timed batches (each with one set-up probe) per run, even when
#: they outlast --seconds.
MIN_BATCHES = 5


class Checker:
    """Correctness and determinism gate over every executed run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._reference: Dict[Tuple, dict] = {}

    def check(self, requests, records) -> None:
        from workloads import unique_records
        for request, record in unique_records(requests, records):
            self.attempted += 1
            report = record.to_report()
            reference = self._reference.setdefault(request.key(), report)
            if not record.correct or report != reference:
                self.failed += 1
                print(f"FAILED {request.workload} {request.system} "
                      f"correct={record.correct} "
                      f"deterministic={report == reference}",
                      file=sys.stderr)

    def crashed(self) -> None:
        traceback.print_exc()
        self.attempted += 1
        self.failed += 1


def run_batch(requests, jobs: int):
    """One untraced batch through a fresh (cache-free) sweep engine."""
    from repro.experiments.engine import SweepEngine
    engine = SweepEngine(jobs=jobs)
    start = time.perf_counter()
    records = engine.run(requests)
    return records, time.perf_counter() - start


def checked_batch(requests, jobs: int, checker: Checker) -> float:
    """Wall time of one checked batch; its records are freed on return,
    so peak memory does not depend on how many batches fit in a run."""
    records, wall = run_batch(requests, jobs)
    checker.check(requests, records)
    return wall


def setup_probe(workload: str, seed: int) -> float:
    """Spawn-to-ready time of one fresh interpreter (see ready.py)."""
    start = time.time()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "ready.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - start


def end_to_end(workload, seed: int, seconds: float,
               checker: Checker) -> Dict[str, float]:
    import workloads as wl
    from reference import REFERENCE_SECONDS, reference_seconds
    setup_probe(workload.name, seed)  # untimed: warms the OS file cache
    requests = wl.prepare(workload, seed)
    # Warm-up batch: fills allocator and import caches.  Its records are
    # the determinism reference for every later run and give the
    # simulated metrics, which every later batch must repeat exactly.
    records = run_batch(requests, workload.jobs)[0]
    checker.check(requests, records)
    if workload.held_out is not None:
        held_out = workload.held_out(seed)
        for _ in range(2):
            checker.check(held_out, run_batch(held_out, 1)[0])
    # Each set-up probe and timed batch is bracketed by two runs of the
    # frozen reference loop; the host time it reports is scaled to a host
    # on which that loop takes REFERENCE_SECONDS (see reference.py).
    walls: List[float] = []
    setups: List[float] = []
    scales: List[float] = []
    before = reference_seconds()
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_BATCHES or time.perf_counter() < deadline:
        setups.append(setup_probe(workload.name, seed))
        walls.append(checked_batch(requests, workload.jobs, checker))
        after = reference_seconds()
        scales.append(2 * REFERENCE_SECONDS / (before + after))
        before = after
    ops = sum(r.ops_executed for _, r in wl.unique_records(requests, records))
    wall_s = statistics.median(w * k for w, k in zip(walls, scales))
    print(f"host: reference loop "
          f"{REFERENCE_SECONDS / statistics.median(scales):.4f} s "
          f"(defining host {REFERENCE_SECONDS} s); unscaled wall_s "
          f"{statistics.median(walls):.4f} s, setup_s "
          f"{statistics.median(setups):.4f} s")
    return {
        "wall_s": wall_s,
        "sim_ops_per_s": statistics.median(ops / (w * k)
                                           for w, k in zip(walls, scales)),
        "setup_s": statistics.median(t * k for t, k in zip(setups, scales)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        **wl.simulated_metrics(requests, records),
    }


def _sum(table: Dict[str, float], prefix: str, names: Sequence[str]) -> float:
    return sum(table.get(f"{prefix}.{name}", 0.0) for name in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tracer, records, wall: float) -> Dict[str, float]:
    """Time-based layer metrics of one traced pass."""
    from tracer import (ACCESS_METHODS, BROADCAST_METHODS, CACHE_METHODS,
                        MEM_METHODS, TX_METHODS)
    self_s, calls = tracer.self_s, tracer.calls
    steps = sum(r.ops_executed for r in records)
    # Scheduler steps that are backend loads or stores (a wrong-path
    # load rides inside a branch step).
    mem_steps = _sum(calls, "core.system", ("load", "store")) \
        + _sum(calls, "smtx", ("load", "store"))
    access_s = _sum(self_s, "coherence.hierarchy", ACCESS_METHODS)
    scheduler_s = self_s.get("runtime.run", 0.0)
    attributed = sum(v for k, v in self_s.items() if k != "request")
    return {
        "runtime.scheduler.self_s": scheduler_s,
        "runtime.scheduler.steps": steps,
        "runtime.scheduler.ns_per_step": _ratio(scheduler_s * 1e9, steps),
        "runtime.scheduler.nonmem_steps": steps - mem_steps,
        "core.system.mem_calls": _sum(calls, "core.system", MEM_METHODS),
        "core.system.mem_self_s": _sum(self_s, "core.system", MEM_METHODS),
        "core.system.tx_calls": _sum(calls, "core.system", TX_METHODS),
        "core.system.tx_s": _sum(self_s, "core.system", TX_METHODS),
        "coherence.hierarchy.access_s": access_s,
        "coherence.hierarchy.ns_per_access": _ratio(
            access_s * 1e9,
            _sum(calls, "coherence.hierarchy", ACCESS_METHODS)),
        "coherence.hierarchy.bcast_calls": _sum(
            calls, "coherence.hierarchy", BROADCAST_METHODS),
        "coherence.hierarchy.bcast_s": _sum(
            self_s, "coherence.hierarchy", BROADCAST_METHODS),
        "coherence.cache.bcast_s": _sum(self_s, "coherence.cache",
                                        CACHE_METHODS),
        "smtx.mem_s": _sum(self_s, "smtx", MEM_METHODS),
        "smtx.tx_s": _sum(self_s, "smtx", TX_METHODS),
        "workloads.build_s": self_s.get("workloads.build", 0.0),
        "workloads.verify_s": self_s.get("workloads.verify", 0.0),
        "obs.digest_s": self_s.get("obs.digest", 0.0),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - attributed,
    }


def counter_metrics(tracer) -> Dict[str, float]:
    """Counts from the public stats of every backend the pass built."""
    from tracer import caches_of
    systems = [s for _, s in tracer.systems]
    hmtx = [s for kind, s in tracer.systems if kind == "hmtx"]
    hierarchies = [s.hierarchy for s in hmtx] \
        + [s.timing for kind, s in tracer.systems if kind == "smtx"]
    hstats = [h.stats for h in hierarchies]
    l1 = [c.stats for h in hierarchies for c in h.l1s]
    caches = [c.stats for h in hierarchies for c in caches_of(h)]
    dirs = [h.dir_stats for h in hierarchies if hasattr(h, "dir_stats")]
    contention = [s.stats.contention for s in systems]
    committed = sum(s.stats.committed for s in systems)
    aborted = sum(s.stats.aborted for s in systems)
    hits = sum(c.hits for c in l1)
    probes = sum(d.probes_sent for d in dirs)
    return {
        "core.system.vid_alloc_calls_per_commit": _ratio(
            tracer.calls.get("core.system.allocate_vid", 0),
            sum(s.stats.committed for s in hmtx)),
        "coherence.hierarchy.accesses": sum(h.loads + h.stores
                                            for h in hstats),
        "coherence.hierarchy.l1_hit_ratio": _ratio(
            hits, hits + sum(c.misses for c in l1)),
        "coherence.hierarchy.snoops": sum(h.bus_snoops for h in hstats),
        "coherence.hierarchy.memory_fetches": sum(h.memory_fetches
                                                  for h in hstats),
        "coherence.hierarchy.peer_transfers": sum(h.peer_transfers
                                                  for h in hstats),
        "coherence.cache.lazy_folds": sum(c.lazy_commits_processed
                                          + c.lazy_aborts_processed
                                          for c in caches),
        "coherence.cache.evictions": sum(c.evictions for c in caches),
        "coherence.cache.version_copies": sum(c.version_copies
                                              for c in caches),
        "coherence.directory.lookups": sum(d.lookups for d in dirs),
        "coherence.directory.probes_sent": probes,
        "coherence.directory.stale_probe_ratio": _ratio(
            sum(d.stale_probes for d in dirs), probes),
        "coherence.directory.invalidations_sent": sum(
            d.invalidations_sent for d in dirs),
        "coherence.directory.bank_wait_cycles": sum(d.bank_wait_cycles
                                                    for d in dirs),
        "txctl.aborts": sum(c.aborts for c in contention),
        "txctl.commit_ratio": _ratio(committed, committed + aborted),
        "txctl.retries": sum(c.retries for c in contention),
        "txctl.backoff_cycles": sum(c.backoff_cycles for c in contention),
        "txctl.fallback_entries": sum(c.fallback_entries
                                      for c in contention),
        "smtx.commit_process_cycles": sum(
            s.commit_process_cycles
            for kind, s in tracer.systems if kind == "smtx"),
    }


def engine_metrics(requests, records, wall: float,
                   jobs: int) -> Dict[str, float]:
    """Engine efficiency derived from outside: batch wall vs record walls."""
    from workloads import unique_records
    unique = unique_records(requests, records)
    workers = min(jobs, os.cpu_count() or 1) if len(unique) > 1 else 1
    busy = sum(r.wall_seconds for _, r in unique)
    return {
        "experiments.engine.parallel_efficiency": busy / (workers * wall),
        "experiments.engine.overhead_s": wall - busy / workers,
        "experiments.engine.dedupe_ratio": len(unique) / len(requests),
    }


def per_layer(workload, seed: int, seconds: float,
              checker: Checker) -> Dict[str, float]:
    import workloads as wl
    from reference import reference_seconds
    from tracer import Tracer, execute_traced
    requests = wl.prepare(workload, seed)
    checker.check(requests, run_batch(requests, workload.jobs)[0])
    distinct = list({q.key(): q for q in requests}.values())
    observed = [q for q in distinct if q.observe]
    unobserved = [replace(q, observe=False) for q in distinct]
    samples: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        records, wall = run_batch(requests, workload.jobs)
        checker.check(requests, records)
        sample = engine_metrics(requests, records, wall, workload.jobs)
        serial_wall = wall
        if workload.jobs > 1:
            serial, serial_wall = run_batch(distinct, 1)
            checker.check(distinct, serial)
        sample["obs.overhead_ratio"] = 0.0
        sample["obs.observed_s"] = sum(
            r.wall_seconds for q, r in wl.unique_records(requests, records)
            if q.observe)
        if observed:
            plain, plain_wall = run_batch(unobserved, 1)
            checker.check(unobserved, plain)
            sample["obs.overhead_ratio"] = serial_wall / plain_wall
        sample["host.reference_s"] = reference_seconds()
        tracer = Tracer()
        start = time.perf_counter()
        traced = [execute_traced(tracer, q) for q in distinct]
        traced_wall = time.perf_counter() - start
        checker.check(distinct, traced)
        sample.update(span_metrics(tracer, traced, traced_wall))
        sample.update(counter_metrics(tracer))
        sample["trace.overhead_ratio"] = traced_wall / serial_wall
        samples.append(sample)
        if time.perf_counter() >= deadline:
            break
        # Free the spans: a large live heap slows the next passes' GC.
        del tracer, traced
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, f"spans-{workload.name}.jsonl"))
    return {name: statistics.median(s[name] for s in samples)
            for name in samples[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    for path in (SRC, HERE):
        compileall.compile_dir(path, quiet=1)
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    units = {name: spec["unit"] for table in ("end_to_end", "per_layer")
             for name, spec in layers[table].items()}
    workload = wl.WORKLOADS[args.workload]
    checker = Checker()
    measure, table = ((per_layer, "per_layer") if args.trace
                      else (end_to_end, "end_to_end"))
    try:
        values = measure(workload, args.seed, args.seconds, checker)
        if set(values) != set(layers[table]):
            raise RuntimeError(f"metrics differ from layers.json {table}: "
                               f"{sorted(set(values) ^ set(layers[table]))}")
    except Exception:  # report the crash as a failed, incorrect run
        checker.crashed()
        values = {}
    for name, value in values.items():
        print(f"{args.workload:<10} {name:<42} {value:>16.6g} {units[name]}")
    print(f"{args.workload:<10} {'failed_frac':<42} "
          f"{_ratio(checker.failed, checker.attempted):>16.6g} ratio")
    print(json.dumps({
        "correct": checker.failed == 0 and bool(values),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
