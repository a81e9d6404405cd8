"""Name-keyed workload table: listing, lookup, back-compat."""

from __future__ import annotations

import pytest

from repro.workloads import make_workload, workload_names
from repro.workloads.suite import BENCHMARK_NAMES, make_benchmark


class TestRegistration:
    def test_all_benchmarks_and_extras_listed(self):
        names = workload_names()
        for name in BENCHMARK_NAMES:
            assert name in names
        for name in ("contended-list", "capacity-hog",
                     "svc-kv", "svc-kv-read", "svc-oltp", "svc-adversary"):
            assert name in names

    def test_names_sorted_and_stable(self):
        assert list(workload_names()) == sorted(workload_names())
        assert workload_names() == workload_names()

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            make_workload("no-such-workload")


class TestLookup:
    def test_make_workload_builds_benchmarks(self):
        workload = make_workload("130.li", 0.5)
        assert workload.name == "130.li"

    def test_make_workload_builds_contended(self):
        workload = make_workload("contended-list", 1.0)
        assert workload.name == "contended-list"
        # The legacy construction parameters are preserved exactly
        # (the contention-sweep goldens depend on them).
        assert workload.nodes == 24
        assert workload.rmw_per_iteration == 2

    def test_factory_options_forwarded(self):
        workload = make_workload("contended-list", 1.0, rmw_per_iteration=5)
        assert workload.rmw_per_iteration == 5

    def test_make_benchmark_rejects_non_benchmark_names(self):
        # Back-compat: benchmark lookups stay restricted to Table 1.
        with pytest.raises(KeyError):
            make_benchmark("999.nonesuch")
        with pytest.raises(KeyError):
            make_benchmark("contended-list")

    def test_make_benchmark_still_builds_suite(self):
        for name in BENCHMARK_NAMES:
            assert make_benchmark(name, 0.25).name == name
