"""Tests for the wall-clock bench harness (experiments/bench.py).

The report-file and regression-gate logic is tested with synthetic
sections (no simulation); one end-to-end smoke runs the real quick-mode
suite once to pin the section schema the CI job depends on.
"""

import json

from repro.experiments.bench import (
    check_regression,
    format_bench,
    run_bench,
    write_report,
)


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


class TestPhaseProfiler:
    def test_breakdown_covers_one_real_run(self):
        from repro.experiments.engine import RunRequest, execute_request
        from repro.experiments.phase_profile import (
            PHASES,
            PhaseProfiler,
            format_profile,
        )
        from repro.coherence.hierarchy import MemoryHierarchy
        from repro.obs.tap import Tap
        from repro.runtime.scheduler import Scheduler
        originals = (Scheduler.run, MemoryHierarchy._access)
        profiler = PhaseProfiler()
        with Tap(profiler).activate():
            record = execute_request(
                RunRequest(workload="ispell", system="hmtx", scale=0.2,
                           calibrated=False))
        profiler.detach()
        # The profiler wraps instances through the tap, never classes.
        assert (Scheduler.run, MemoryHierarchy._access) == originals
        report = profiler.report(record.wall_seconds)
        assert set(report["phases"]) == set(PHASES) | {"other"}
        # Every run spends time in the scheduler and the protocol hit
        # path; exclusive shares must sum to ~1 with "other" absorbing
        # the remainder.
        assert report["phases"]["scheduler"]["seconds"] > 0
        assert report["phases"]["access"]["calls"] > 0
        assert abs(sum(row["share"]
                       for row in report["phases"].values()) - 1.0) < 0.01
        assert "phase breakdown" in format_profile(report)

    def test_profiled_run_is_behavior_identical(self):
        from repro.experiments.engine import RunRequest, execute_request
        from repro.experiments.phase_profile import PhaseProfiler
        from repro.obs.tap import Tap
        request = RunRequest(workload="ispell", system="hmtx", scale=0.2,
                             calibrated=False)
        plain = execute_request(request)
        profiler = PhaseProfiler()
        with Tap(profiler).activate():
            profiled = execute_request(request)
        profiler.detach()
        assert plain == profiled  # wall time excluded from equality
