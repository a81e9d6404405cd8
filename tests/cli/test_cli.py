"""Tests for the `python -m repro` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "130.li" in out

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

    def test_run_sequential(self, capsys):
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

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "999.nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
