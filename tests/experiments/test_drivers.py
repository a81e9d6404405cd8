"""Smoke + shape tests for every experiment driver at reduced scale.

The full-scale runs live in benchmarks/; here each driver must execute,
produce well-formed output, and reproduce the headline *shape* claims.
"""

import pytest

from repro.experiments import (
    BenchmarkRunner,
    format_fig1,
    format_fig2,
    format_fig5,
    format_fig8,
    format_fig9,
    format_table,
    format_table1,
    format_table3,
    geomean,
    run_fig1,
    run_fig2,
    run_fig5,
    run_fig8,
    run_fig9,
    run_table1,
    run_table3,
)
from repro.workloads.suite import BENCHMARK_NAMES, SMTX_COMPARABLE

SCALE = 0.35


@pytest.fixture(scope="module")
def runner():
    """One shared reduced-scale runner: drivers reuse cached runs."""
    return BenchmarkRunner(scale=SCALE)


class TestReportingHelpers:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_empty(self):
        """An empty set means the sweep lost rows: loud error, not 0.0."""
        with pytest.raises(ValueError):
            geomean([])

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]], title="T")
        assert "T" in text and "33" in text

    def test_runner_caches(self, runner):
        first = runner.run("ispell", "sequential")
        second = runner.run("ispell", "sequential")
        assert first is second


class TestFig1:
    def test_shape(self):
        result = run_fig1(nodes=20)
        assert result.speedups["PS-DSWP"] > result.speedups["DSWP"]
        assert result.speedups["DSWP"] > result.speedups["DOACROSS"]
        assert "Figure 1" in format_fig1(result)


class TestFig5:
    def test_formats(self):
        text = format_fig5(run_fig5())
        assert "S-M(2,2)" in text


class TestFig8(object):
    @pytest.fixture(scope="class")
    def result(self, runner):
        return run_fig8(runner=runner)

    def test_all_benchmarks_present(self, result):
        assert set(result.rows) == set(BENCHMARK_NAMES)

    def test_hmtx_speeds_up_everything(self, result):
        for row in result.rows.values():
            assert row.hmtx_speedup > 1.2, row.benchmark

    def test_semantics_preserved_everywhere(self, result):
        assert all(row.correct for row in result.rows.values())

    def test_geomean_near_paper(self, result):
        """Paper: 1.99x (All).  Reduced-scale runs drift a little."""
        assert 1.6 < result.geomean_hmtx_all < 2.6

    def test_hmtx_beats_smtx(self, result):
        """The headline comparison, despite maximal vs minimal validation."""
        assert result.geomean_hmtx_comparable > result.geomean_smtx_comparable

    def test_formats(self, result):
        text = format_fig8(result)
        assert "geomean" in text and "ispell" in text


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return run_fig2(runner=runner)

    def test_six_benchmarks(self, result):
        assert set(result.rows) == set(SMTX_COMPARABLE)

    def test_substantial_validation_destroys_speedup(self, result):
        """Figure 2's message: more validation, much worse performance."""
        for row in result.rows.values():
            assert row.substantial_whole_program < row.minimal_whole_program
        assert result.geomean_substantial < 1.0 < result.geomean_minimal

    def test_formats(self, result):
        assert "substantial" in format_fig2(result)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return run_table1(runner=runner)

    def test_rows_complete(self, result):
        assert set(result.measured) == set(BENCHMARK_NAMES)

    def test_branch_mix_tracks_paper(self, result):
        """Branch density within 1.5x of Table 1 for every benchmark."""
        for name, measured in result.measured.items():
            paper = result.paper[name].branch_pct
            assert measured.branch_pct == pytest.approx(paper, rel=0.5), name

    def test_mispredict_rate_tracks_paper(self, result):
        for name, measured in result.measured.items():
            paper = result.paper[name].mispredict_pct
            # Absolute slack covers tiny-rate benchmarks (alvinn: 0.245%)
            # whose reduced-scale runs see only a handful of mispredicts.
            assert measured.mispredict_pct == \
                pytest.approx(paper, rel=0.7, abs=0.3), name

    def test_sla_ordering(self, result):
        m = result.measured
        assert m["ispell"].sla_pct_of_loads > m["456.hmmer"].sla_pct_of_loads
        assert m["ispell"].sla_pct_of_loads > m["052.alvinn"].sla_pct_of_loads

    def test_formats(self, result):
        assert "Table 1" in format_table1(result)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return run_fig9(runner=runner)

    def test_bzip2_largest(self, result):
        assert result.largest() == "256.bzip2"

    def test_sets_nonzero(self, result):
        for row in result.rows.values():
            assert row.combined_kb > 0
            assert row.combined_kb >= max(row.read_set_kb, row.write_set_kb)

    def test_formats(self, result):
        assert "combined" in format_fig9(result)


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, runner):
        return run_table3(runner=runner)

    def test_area_points(self, result):
        assert result.area_commodity == pytest.approx(107.1, abs=0.5)
        assert result.area_hmtx == pytest.approx(111.1, abs=0.5)

    def test_sequential_vs_parallel_power(self, result):
        seq = result.rows["Commodity / Sequential (All)"].dynamic_w
        hmtx = result.rows["HMTX-hw / HMTX, Max R/W (All)"].dynamic_w
        assert 2.5 < seq < 5.0
        # Reduced-scale parallel runs have proportionally longer pipeline
        # fill/drain, lowering average utilisation below the full-scale
        # (and paper) ~14 W point.
        assert 6.0 < hmtx < 16.0

    def test_hmtx_hardware_tax_is_small(self, result):
        plain = result.rows["Commodity / Sequential (All)"].dynamic_w
        taxed = result.rows["HMTX-hw / Sequential (All)"].dynamic_w
        assert plain < taxed < plain * 1.03

    def test_hmtx_energy_beats_smtx(self, result):
        smtx = result.rows["HMTX-hw / SMTX, Min R/W"].energy_j
        hmtx = result.rows["HMTX-hw / HMTX, Max R/W (Comp.)"].energy_j
        assert hmtx < smtx

    def test_formats(self, result):
        assert "area" in format_table3(result)
