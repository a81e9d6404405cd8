"""Sweep-engine tests: determinism, caching, and cache-key identity.

The contract the drivers (and the CI sweep-smoke job) rely on:

* ``jobs=N`` produces records *equal* to serial execution — results are
  merged in spec order, and wall-clock time is excluded from both record
  equality and ``to_report()``;
* repeated requests are deduplicated and cached by identity (``is``);
* the cache key covers everything that changes a result — workload,
  system, scale, paradigm, policy, machine config — so two runners with
  different scales or machines sharing one engine can never collide
  (the pre-engine BenchmarkRunner keyed on ``(name, system)`` alone).
"""

import gc
import json
import os
import time
import weakref

import pytest

from repro.core.config import MachineConfig
from repro.experiments.engine import run_request
from repro.workloads.contended import CapacityHogWorkload
from repro.experiments import (
    BenchmarkRunner,
    RunRequest,
    SweepEngine,
    SweepSpec,
    execute_request,
)

REQUESTS = (
    RunRequest(workload="ispell", system="sequential", scale=0.2),
    RunRequest(workload="ispell", system="hmtx", scale=0.2),
    RunRequest(workload="ispell", system="smtx-minimal", scale=0.2),
    RunRequest(workload="contended-list", system="hmtx", scale=0.2,
               paradigm="PS-DSWP", policy="backoff"),
)


class TestDeterminism:
    def test_parallel_equals_serial(self):
        """The headline contract: --jobs N is bit-identical to serial."""
        serial = SweepEngine(jobs=1).run(REQUESTS)
        fanned = SweepEngine(jobs=2).run(REQUESTS)
        for s, p in zip(serial, fanned):
            assert s == p                          # wall time excluded
            assert s.to_report() == p.to_report()  # the bytes CI diffs

    def test_pool_path_equals_serial(self):
        """Force the real process pool (the CPU cap would otherwise keep
        a 1-CPU host in-process) and check the fork-shared index dispatch
        still merges in request order."""
        serial = SweepEngine(jobs=1).run(REQUESTS)
        engine = SweepEngine(jobs=2)
        engine.worker_cap = 2
        fanned = engine.run(REQUESTS)
        for s, p in zip(serial, fanned):
            assert s == p
            assert s.to_report() == p.to_report()

    def test_jobs_capped_to_cpus_run_in_process(self, monkeypatch):
        """jobs > CPUs must not pay pool overhead: with a cap of one
        worker the batch runs in-process (no fork, overhead stays 0)."""
        import repro.experiments.engine as engine_mod
        engine = SweepEngine(jobs=4)
        engine.worker_cap = 1
        monkeypatch.setattr(
            engine_mod, "_pool_context",
            lambda: (_ for _ in ()).throw(AssertionError("pool used")))
        records = engine.run(REQUESTS)
        assert [r.workload for r in records] == \
            [r.workload for r in REQUESTS]
        assert engine.spawn_overhead_seconds == 0.0

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs two CPUs for overlapping workers")
    def test_pool_overhead_counts_overlapping_workers(self):
        """Overlapping workers must not hide the pool's own cost: the
        overhead is pool wall - sum(worker walls) / workers, which stays
        positive where ``max(0, wall - sum)`` would read 0."""
        requests = [RunRequest(workload=name, system="hmtx", scale=scale)
                    for name in ("130.li", "052.alvinn")
                    for scale in (1.0, 0.9)]
        engine = SweepEngine(jobs=2)
        engine.worker_cap = 2
        start = time.perf_counter()
        records = engine.run(requests)
        outer = time.perf_counter() - start
        busy = sum(r.wall_seconds for r in records)
        assert 0 < engine.spawn_overhead_seconds <= outer - busy / 2

    def test_results_in_request_order(self):
        records = SweepEngine().run(REQUESTS)
        assert [r.workload for r in records] == \
            [r.workload for r in REQUESTS]
        assert [r.system for r in records] == [r.system for r in REQUESTS]

    def test_report_excludes_wall_clock(self):
        record = SweepEngine().run_one(REQUESTS[0])
        report = record.to_report()
        assert "wall_seconds" in dir(record) or hasattr(record, "wall_seconds")
        assert "wall_seconds" not in report
        json.dumps(report, sort_keys=True)  # must be JSON-clean

    def test_finished_run_is_freed_without_a_collection(self):
        """A finished run forms no reference cycle: dropping its result
        frees the system, its hierarchy and its main memory at once, not
        at the next full garbage collection (which left several dead
        capacity-hog memories alive at a time)."""
        request = RunRequest(workload="capacity-hog", system="hmtx",
                             scale=0.5, paradigm="PS-DSWP", policy="backoff",
                             machine=CapacityHogWorkload.tiny_config())
        gc.disable()
        try:
            workload, result = run_request(request)
            memory = weakref.ref(result.system.hierarchy.memory)
            del workload, result
            assert memory() is None
        finally:
            gc.enable()

    def test_wall_clock_excluded_from_equality(self):
        a = execute_request(REQUESTS[0])
        b = execute_request(REQUESTS[0])
        assert a.wall_seconds != b.wall_seconds or True  # timing may tie
        assert a == b


class TestCaching:
    def test_duplicates_deduplicated(self):
        engine = SweepEngine()
        first, second = engine.run([REQUESTS[1], REQUESTS[1]])
        assert first is second

    def test_run_one_caches(self):
        engine = SweepEngine()
        assert engine.run_one(REQUESTS[0]) is engine.run_one(REQUESTS[0])

    def test_run_spec_uses_cache(self):
        engine = SweepEngine()
        spec = SweepSpec(name="t", requests=REQUESTS[:2])
        records = engine.run_spec(spec)
        assert engine.run_one(REQUESTS[0]) is records[0]

    def test_repeat_tag_is_a_distinct_key(self):
        """bench's best-of-N timing needs re-execution, not a cache hit."""
        from dataclasses import replace
        engine = SweepEngine()
        base = engine.run_one(REQUESTS[0])
        again = engine.run_one(replace(REQUESTS[0], repeat=1))
        assert base is not again
        assert base == again  # same simulation either way


class TestCacheKeys:
    """Regression: keys cover scale and machine config (satellite #2)."""

    def test_scale_in_key(self):
        a = RunRequest(workload="ispell", system="hmtx", scale=0.2)
        b = RunRequest(workload="ispell", system="hmtx", scale=0.3)
        assert a.key() != b.key()

    def test_machine_config_in_key(self):
        a = RunRequest(workload="ispell", system="hmtx", scale=0.2)
        b = RunRequest(workload="ispell", system="hmtx", scale=0.2,
                       machine=MachineConfig(l1_size=8 * 1024))
        assert a.key() != b.key()

    def test_runners_sharing_an_engine_do_not_collide(self):
        """Two runners, one engine, different scales: distinct runs."""
        engine = SweepEngine()
        small = BenchmarkRunner(scale=0.2, engine=engine)
        large = BenchmarkRunner(scale=0.35, engine=engine)
        a = small.sequential("ispell")
        b = large.sequential("ispell")
        assert a is not b
        assert a.cycles != b.cycles

    def test_runner_config_keys_separately(self):
        engine = SweepEngine()
        stock = BenchmarkRunner(scale=0.2, engine=engine)
        tiny = BenchmarkRunner(scale=0.2, engine=engine,
                               config=MachineConfig(l1_size=4 * 1024))
        a = stock.hmtx("ispell")
        b = tiny.hmtx("ispell")
        assert a is not b

    def test_identical_runners_share_cache(self):
        engine = SweepEngine()
        one = BenchmarkRunner(scale=0.2, engine=engine)
        two = BenchmarkRunner(scale=0.2, engine=engine)
        assert one.sequential("ispell") is two.sequential("ispell")
