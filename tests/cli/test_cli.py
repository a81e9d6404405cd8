"""Tests for the `python -m repro` command-line interface."""

import contextlib
import io
import json

import pytest

from repro.__main__ import main
from repro.experiments.engine import SYSTEMS


def _listed_systems():
    """The system labels ``python -m repro list`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["list"])
    line = next(line for line in out.getvalue().splitlines()
                if line.startswith("systems"))
    return line.split(":", 1)[1].strip().split(", ")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "130.li" in out

    def test_list_prints_the_system_table(self):
        assert _listed_systems() == list(SYSTEMS)

    @pytest.mark.parametrize("label", _listed_systems())
    def test_every_listed_system_runs(self, capsys, label):
        assert main(["run", "ispell", "--system", label,
                     "--scale", "0.3"]) == 0
        assert "matches sequential semantics" in capsys.readouterr().out

    def test_fig5_artifact(self, capsys):
        assert main(["fig5"]) == 0
        assert "S-M(2,2)" in capsys.readouterr().out

    def test_fig1_artifact(self, capsys):
        assert main(["fig1"]) == 0
        assert "PS-DSWP" in capsys.readouterr().out

    def test_run_benchmark(self, capsys):
        assert main(["run", "ispell", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "matches sequential semantics" in out

    def test_run_sequential_system(self, capsys):
        assert main(["run", "ispell", "--system", "sequential",
                     "--scale", "0.3"]) == 0
        assert "Sequential" in capsys.readouterr().out

    def test_run_smtx(self, capsys):
        assert main(["run", "456.hmmer", "--system", "smtx-minimal",
                     "--scale", "0.3"]) == 0
        assert "SMTX" in capsys.readouterr().out

    def test_run_with_trace(self, capsys):
        assert main(["run", "ispell", "--scale", "0.3", "--trace"]) == 0
        assert "event counts" in capsys.readouterr().out

    def test_run_with_trace_on_smtx(self, capsys):
        # The tracer attaches through the tap's activation, so every
        # --system is traced (SMTX: its timing hierarchy).
        assert main(["run", "ispell", "--system", "smtx-minimal",
                     "--scale", "0.3", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "event counts" in out
        summary = out.split("event counts:", 1)[1]
        assert "load" in summary and "store" in summary

    def test_bench_output_reports_the_makespan_bound(self, tmp_path):
        """Every ``--bench-output`` entry carries the executed records'
        busy time, the longest request and the makespan bound, and no
        run beats its bound."""
        bench = tmp_path / "bench.json"
        for jobs in ("1", "2"):
            assert main(["all", "--quick", "--jobs", jobs,
                         "--output", str(tmp_path / "report.json"),
                         "--bench-output", str(bench)]) == 0
        runs = json.loads(bench.read_text())["runs"]["quick"]
        assert sorted(runs) == ["jobs-1", "jobs-2"]
        for run in runs.values():
            assert 0 < run["longest_request_seconds"] \
                <= run["makespan_bound_seconds"] <= run["wall_seconds"]
            assert run["makespan_bound_seconds"] <= run["busy_seconds"]
        assert runs["jobs-1"]["makespan_bound_seconds"] == \
            runs["jobs-1"]["busy_seconds"]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "999.nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
