"""CLI tests for ``python -m repro obs``."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import main as obs_main
from repro.obs.export import validate_trace


class TestObsCli:
    def test_text_report_reconciles(self, capsys):
        rc = obs_main(["contended-list", "--scale", "0.25",
                       "--policy", "backoff"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cycle attribution" in out
        assert "reconciliation vs SystemStats: exact" in out
        assert "hottest lines by conflict count:" in out

    def test_timeline_artifact_is_valid(self, capsys, tmp_path):
        out_file = tmp_path / "timeline.json"
        rc = obs_main(["contended-list", "--scale", "0.25",
                       "--policy", "backoff",
                       "--timeline", str(out_file), "--gantt"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"wrote {out_file}" in out
        assert "gantt:" in out
        data = json.loads(out_file.read_text())
        counts = validate_trace(data)
        assert counts["b"] == counts["e"] > 0

    def test_json_report_schema(self, capsys):
        rc = obs_main(["contended-list", "--scale", "0.25",
                       "--policy", "backoff", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["schema"] == "hmtx-obs-report/1"
        assert report["correct"] is True
        assert report["reconcile"]["ok"] is True
        assert report["digest"]["schema"] == "hmtx-obs-digest/1"
        assert report["digest"]["identity_ok"] is True
        checks = report["reconcile"]["checks"]
        assert checks["commits"]["observed"] == checks["commits"]["stats"]
        assert report["metrics"]["counters"]["tx_commits_total"] \
            == checks["commits"]["stats"]

    def test_other_backends_reconcile(self, capsys):
        for system in ("smtx-minimal", "oracle"):
            rc = obs_main(["contended-list", "--scale", "0.25",
                           "--backend", system, "--format", "json"])
            report = json.loads(capsys.readouterr().out)
            assert rc == 0, system
            assert report["reconcile"]["ok"] is True, system

    def test_metrics_dump(self, capsys):
        rc = obs_main(["052.alvinn", "--scale", "0.1", "--metrics"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tx_commits_total" in out
        assert "coherence_loads_total" in out

    def test_overhead_check_passes_generous_limit(self, capsys):
        # A generous bound keeps this stable on loaded CI machines while
        # still catching pathological instrumentation regressions.
        rc = obs_main(["contended-list", "--scale", "0.25",
                       "--policy", "backoff", "--overhead-check",
                       "--repeat", "2", "--overhead-limit", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overhead-check" in out and "OK" in out

    def test_unknown_workload_errors(self):
        with pytest.raises(KeyError):
            obs_main(["no-such-workload"])

    def test_module_dispatch(self, capsys):
        from repro.__main__ import main as repro_main
        rc = repro_main(["obs", "contended-list", "--scale", "0.25",
                         "--policy", "backoff", "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["reconcile"]["ok"]


class TestOverheadJson:
    def test_overhead_check_json_carries_ratio_and_verdict(self, capsys):
        rc = obs_main(["contended-list", "--scale", "0.25",
                       "--policy", "backoff", "--overhead-check",
                       "--repeat", "1", "--overhead-limit", "50",
                       "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["schema"] == "hmtx-obs-overhead/1"
        assert report["workload"] == "contended-list"
        assert report["slowdown"] > 0
        assert report["limit"] == 50.0
        assert report["ok"] is True
        assert report["instrumented_ops_per_sec"] > 0

    def test_timed_runs_alternate(self, capsys, monkeypatch):
        """Plain and observed runs interleave, so a host that drifts in
        speed during the check slows both sides alike."""
        from types import SimpleNamespace

        from repro.experiments import engine

        calls = []
        result = SimpleNamespace(run=SimpleNamespace(ops_executed=1000))

        def run_request(request):
            calls.append("plain")
            return None, result

        def observed_run(request):
            calls.append("observed")
            return None, None, result

        monkeypatch.setattr(engine, "run_request", run_request)
        monkeypatch.setattr(engine, "observed_run", observed_run)
        rc = obs_main(["contended-list", "--scale", "0.25",
                       "--overhead-check", "--repeat", "3",
                       "--overhead-limit", "1000", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert calls == ["plain", "observed"] * 3
        assert report["repeat"] == 3
        assert report["ops_executed"] == 1000


class TestRegressionObservatoryCli:
    def test_history_roundtrip_and_zero_self_diff(self, capsys, tmp_path):
        store = str(tmp_path / "hist")
        for _ in range(2):
            rc = obs_main(["contended-list", "--scale", "0.25",
                           "--history", store])
            assert rc == 0
        capsys.readouterr()
        rc = obs_main(["history", "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 generation(s)" in out
        rc = obs_main(["diff", "HEAD~1", "HEAD", "--store", store,
                       "--check-zero"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ZERO DELTA" in out

    def test_diff_json_artifact_written(self, capsys, tmp_path):
        store = str(tmp_path / "hist")
        obs_main(["contended-list", "--scale", "0.25",
                  "--history", store])
        capsys.readouterr()
        output = tmp_path / "diff.json"
        rc = obs_main(["diff", "HEAD", "HEAD", "--store", store,
                       "--format", "json", "--output", str(output)])
        printed = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert printed["schema"] == "hmtx-obs-diff/1"
        assert printed["zero"] is True
        assert json.loads(output.read_text()) == printed

    def test_diff_bad_ref_exits_2(self, capsys, tmp_path):
        rc = obs_main(["diff", "HEAD~1", "HEAD",
                       "--store", str(tmp_path / "none")])
        assert rc == 2
        assert "obs diff:" in capsys.readouterr().err

    def test_history_export_bundle(self, capsys, tmp_path):
        store = str(tmp_path / "hist")
        obs_main(["contended-list", "--scale", "0.25",
                  "--history", store])
        capsys.readouterr()
        out_path = tmp_path / "bundle.json"
        rc = obs_main(["history", "--store", store,
                       "--export", str(out_path)])
        assert rc == 0
        bundle = json.loads(out_path.read_text())
        assert bundle["schema"] == "hmtx-obs-digests/1"
        assert bundle["entries"][0]["workload"] == "contended-list"

    def test_whatif_quick_smoke(self, capsys, tmp_path):
        rc = obs_main(["whatif", "--quick", "--output",
                       str(tmp_path / "w.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reset_scrub" in out
        report = json.loads((tmp_path / "w.json").read_text())
        assert report["schema"] == "hmtx-obs-whatif/1"
        assert [c["preset"] for c in report["combos"]] == ["2s8c"]
