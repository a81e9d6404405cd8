"""Tests for the wall-clock bench harness (experiments/bench.py).

The report-file and regression-gate logic is tested with synthetic
sections (no simulation); one end-to-end smoke runs the real quick-mode
suite once to pin the section schema the CI job depends on.
"""

import json
from dataclasses import replace

from repro.experiments import bench, engine
from repro.experiments.bench import (
    check_regression,
    format_bench,
    run_bench,
    write_report,
)
from repro.experiments.engine import RunRequest, SweepSpec
from repro.workloads.suite import BENCHMARK_NAMES


def section(mode="quick", rate=1000):
    return {
        "mode": mode,
        "scale": 0.25,
        "repeat": 1,
        "workloads": {},
        "totals": {"wall_seconds": 1.0, "ops_executed": rate,
                   "accesses": 0, "ops_per_sec": rate,
                   "accesses_per_sec": 0, "fig8_wall_seconds": 1.0,
                   "fig8_ops_per_sec": rate},
    }


class TestCheckRegression:
    def _baseline(self, tmp_path, rate=1000, mode="quick"):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"runs": {mode: section(mode, rate)}}))
        return path

    def test_within_tolerance_passes(self, tmp_path):
        ok, msg = check_regression(section(rate=800),
                                   self._baseline(tmp_path), tolerance=0.30)
        assert ok and msg.startswith("OK")

    def test_regression_fails(self, tmp_path):
        ok, msg = check_regression(section(rate=600),
                                   self._baseline(tmp_path), tolerance=0.30)
        assert not ok and msg.startswith("REGRESSION")

    def test_missing_baseline_passes_with_warning(self, tmp_path):
        ok, msg = check_regression(section(), tmp_path / "nope.json")
        assert ok and "no baseline" in msg

    def test_other_mode_section_is_not_compared(self, tmp_path):
        ok, msg = check_regression(
            section(mode="quick", rate=1),
            self._baseline(tmp_path, rate=10**6, mode="full"))
        assert ok and "skipping" in msg


class TestWriteReport:
    def test_merge_preserves_other_modes(self, tmp_path):
        out = tmp_path / "BENCH.json"
        write_report(section(mode="full", rate=5000), out)
        data = write_report(section(mode="quick", rate=1000), out)
        assert data["runs"]["full"]["totals"]["ops_per_sec"] == 5000
        assert data["runs"]["quick"]["totals"]["ops_per_sec"] == 1000
        assert data["schema"] == "hmtx-hotpath-bench/1"
        assert json.loads(out.read_text()) == data

    def test_corrupt_report_is_replaced(self, tmp_path):
        out = tmp_path / "BENCH.json"
        out.write_text("{not json")
        data = write_report(section(), out)
        assert data["runs"]["quick"]["mode"] == "quick"


class TestQuickModeEndToEnd:
    def test_quick_run_has_ci_contract_fields(self):
        run = run_bench(quick=True, repeat=1)
        assert run["mode"] == "quick"
        assert run["totals"]["ops_per_sec"] > 0
        assert run["totals"]["fig8_wall_seconds"] > 0
        assert set(run["workloads"]) >= {"contended-list", "capacity-hog"}
        assert all(w["sim_ops_per_sec"] > 0 for w in run["workloads"].values())
        # The printable table renders without error.
        assert "hot-path bench" in format_bench(run)


class TestBestOf:
    def test_repeat_runs_every_request_in_each_pass(self, monkeypatch):
        """``repeat=2`` executes every request twice, once per fresh
        engine, and reports each request's least wall time."""
        calls = []
        walls = iter([5.0, 3.0, 4.0, 1.0, 2.0, 6.0])
        real = engine.execute_request

        def timed(request):
            calls.append(request)
            return replace(real(request), wall_seconds=next(walls))

        spec = SweepSpec("bench", tuple(
            RunRequest(workload=name, system="hmtx", scale=0.1)
            for name in BENCHMARK_NAMES[:3]))
        monkeypatch.setattr(engine, "execute_request", timed)
        monkeypatch.setattr(bench, "bench_spec", lambda quick: spec)
        run = run_bench(quick=True, repeat=2)
        assert calls == list(spec.requests) * 2
        assert run["repeat"] == 2
        # Passes time (5, 3, 4) then (1, 2, 6).
        assert [w["wall_seconds"] for w in run["workloads"].values()] \
            == [1.0, 2.0, 4.0]
        assert run["totals"]["wall_seconds"] == 7.0
