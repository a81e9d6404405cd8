"""Tests for the 8 benchmark models: correctness under every system,
golden-mirror fidelity, and Table 1 characteristics."""

import pytest

from repro.runtime.paradigms import run_workload
from repro.smtx import ValidationMode, run_smtx
from repro.workloads import (
    BENCHMARK_NAMES,
    PAPER_TABLE1,
    SMTX_COMPARABLE,
    all_benchmarks,
    executor_factory_for,
    make_benchmark,
)

SMALL = 0.4  # scale factor keeping unit tests fast


@pytest.fixture(scope="module")
def hmtx_runs():
    """One HMTX run per benchmark at reduced scale (shared by tests)."""
    runs = {}
    for name in BENCHMARK_NAMES:
        workload = make_benchmark(name, SMALL)
        result = run_workload(workload,
                              executor_factory=executor_factory_for(workload))
        runs[name] = (workload, result)
    return runs


class TestSuiteStructure:
    def test_eight_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 8

    def test_names_match_table1(self):
        assert set(BENCHMARK_NAMES) == set(PAPER_TABLE1)

    def test_six_smtx_comparable(self):
        """crafty and ispell have no SMTX comparison point (section 6.1)."""
        assert len(SMTX_COMPARABLE) == 6
        assert "186.crafty" not in SMTX_COMPARABLE
        assert "ispell" not in SMTX_COMPARABLE

    def test_paradigms_match_table1(self):
        for name, workload in all_benchmarks(SMALL).items():
            assert workload.paradigm == PAPER_TABLE1[name].paradigm

    def test_hot_loop_fractions_match_table1(self):
        for name, workload in all_benchmarks(SMALL).items():
            assert workload.hot_loop_fraction * 100 == \
                pytest.approx(PAPER_TABLE1[name].hot_loop_pct, abs=0.1)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            make_benchmark("999.nonesuch")

    def test_scaling_changes_iterations(self):
        small = make_benchmark("ispell", 0.25)
        big = make_benchmark("ispell", 1.0)
        assert small.iterations < big.iterations


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestGoldenMirrors:
    """Each model's pure-Python golden must equal its simulated execution."""

    def test_sequential_matches_golden(self, name):
        workload = make_benchmark(name, SMALL)
        result = run_workload(workload, paradigm="Sequential",
                              executor_factory=executor_factory_for(workload))
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestHmtxExecution:
    def test_parallel_matches_golden(self, name, hmtx_runs):
        workload, result = hmtx_runs[name]
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_zero_misspeculation(self, name, hmtx_runs):
        """Section 6.3: no misspeculation in any evaluated benchmark."""
        _, result = hmtx_runs[name]
        assert result.system.stats.aborted == 0

    def test_every_iteration_is_a_transaction(self, name, hmtx_runs):
        workload, result = hmtx_runs[name]
        assert result.system.stats.committed == workload.iterations

    def test_maximal_validation(self, name, hmtx_runs):
        """Every speculative load/store inside the transaction enters the
        read/write sets — the paper's worst-case validation posture."""
        workload, result = hmtx_runs[name]
        stats = result.system.stats
        assert stats.spec_loads > 0
        assert stats.spec_stores > 0
        assert all(t.spec_accesses > 0 for t in stats.transactions)


@pytest.mark.parametrize("name", SMTX_COMPARABLE)
class TestSmtxExecution:
    def test_smtx_minimal_matches_golden(self, name):
        workload = make_benchmark(name, SMALL)
        result = run_smtx(workload, mode=ValidationMode.MINIMAL,
                          executor_factory=executor_factory_for(workload))
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)


@pytest.mark.parametrize("name", [n for n in SMTX_COMPARABLE
                                  if n != "052.alvinn"])
def test_smtx_ps_dswp_thread_layout(name):
    """SMTX keeps one of the 4 cores for its commit process.  PS-DSWP
    then runs stage 1, two stage-2 workers and a stage-3 thread on the
    other three; stage 3 shares stage 1's core."""
    workload = make_benchmark(name, SMALL)
    assert workload.paradigm == "PS-DSWP"
    result = run_smtx(workload)
    assert result.paradigm == "SMTX-PS-DSWP"
    assert result.system.config.num_cores == 3
    cores = {tid: ctx.core for tid, ctx in result.system.contexts.items()}
    assert cores == {0: 0, 1: 1, 2: 2, 3: 0}
    assert set(result.run.thread_clocks) == {0, 1, 2, 3}


class TestTable1Characteristics:
    def test_ispell_needs_most_slas(self, hmtx_runs):
        """Table 1: ispell 13.0% of loads, the suite's highest."""
        fractions = {name: run.system.stats.sla_fraction_of_spec_loads
                     for name, (_, run) in hmtx_runs.items()}
        assert max(fractions, key=fractions.get) == "ispell"

    def test_dense_benchmarks_need_fewest_slas(self, hmtx_runs):
        fractions = {name: run.system.stats.sla_fraction_of_spec_loads
                     for name, (_, run) in hmtx_runs.items()}
        assert fractions["456.hmmer"] < 0.05
        assert fractions["052.alvinn"] < 0.05

    def test_li_has_largest_transactions(self, hmtx_runs):
        accesses = {name: run.system.stats.avg_spec_accesses_per_tx
                    for name, (_, run) in hmtx_runs.items()}
        assert max(accesses, key=accesses.get) == "130.li"

    def test_ispell_has_smallest_transactions(self, hmtx_runs):
        accesses = {name: run.system.stats.avg_spec_accesses_per_tx
                    for name, (_, run) in hmtx_runs.items()}
        assert min(accesses, key=accesses.get) == "ispell"

    def test_bzip2_has_largest_sets(self, hmtx_runs):
        """Figure 9: 256.bzip2's combined set dwarfs the others."""
        sizes = {name: run.system.stats.avg_combined_set_kb
                 for name, (_, run) in hmtx_runs.items()}
        assert max(sizes, key=sizes.get) == "256.bzip2"

    def test_alvinn_is_the_one_doall_benchmark(self, hmtx_runs):
        paradigms = {name: run.paradigm for name, (_, run) in hmtx_runs.items()}
        assert paradigms.pop("052.alvinn") == "DOALL"
        assert set(paradigms.values()) == {"PS-DSWP"}
