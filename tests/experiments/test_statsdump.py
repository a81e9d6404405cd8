"""Tests for the gem5-style statistics dump."""

import pytest

from repro.core import MachineConfig
from repro.experiments import collect_stats, format_stats, stats_report
from repro.runtime.paradigms import run_workload
from repro.smtx import run_smtx
from repro.topology import TopologySpec
from repro.workloads import LinkedListWorkload


@pytest.fixture(scope="module")
def hmtx_result():
    return run_workload(LinkedListWorkload(nodes=16), paradigm="PS-DSWP")


class TestCollect:
    def test_sections_present(self, hmtx_result):
        titles = [t for t, _ in collect_stats(hmtx_result)]
        for expected in ("run", "transactions", "sla", "instruction mix",
                         "memory system", "caches", "vid comparators (L1[0])"):
            assert expected in titles

    def test_run_section_values(self, hmtx_result):
        sections = dict(collect_stats(hmtx_result))
        run = dict(sections["run"])
        assert run["paradigm"] == "PS-DSWP"
        assert run["cycles"] == hmtx_result.cycles

    def test_transaction_counts(self, hmtx_result):
        sections = dict(collect_stats(hmtx_result))
        tx = dict(sections["transactions"])
        assert tx["committed"] == 16
        assert tx["aborted"] == 0

    def test_directory_section_only_on_directory_machines(self, hmtx_result):
        assert "directory" not in dict(collect_stats(hmtx_result))
        result = run_workload(LinkedListWorkload(nodes=8),
                              MachineConfig(coherence="directory"),
                              paradigm="PS-DSWP")
        assert "directory" in dict(collect_stats(result))

    def test_overflow_section_only_when_enabled(self):
        result = run_workload(LinkedListWorkload(nodes=8),
                              MachineConfig(unbounded_sets=True),
                              paradigm="PS-DSWP")
        assert "overflow table" in dict(collect_stats(result))

    def test_caches_section_names_every_llc_slice(self):
        machine = MachineConfig.for_topology(
            TopologySpec(sockets=2, cores_per_socket=4))
        result = run_workload(LinkedListWorkload(nodes=8), machine,
                              paradigm="PS-DSWP")
        names = [name for name, _ in dict(collect_stats(result))["caches"]]
        assert names == [f"L1[{i}]" for i in range(8)] + ["LLC[0]", "LLC[1]"]

    def test_smtx_results_dump_without_hierarchy_sections(self):
        result = run_smtx(LinkedListWorkload(nodes=8))
        titles = [t for t, _ in collect_stats(result)]
        assert "transactions" in titles
        assert "memory system" not in titles   # software TM


class TestFormat:
    def test_report_renders(self, hmtx_result):
        text = stats_report(hmtx_result)
        assert "[transactions]" in text
        assert "committed" in text

    def test_format_stats_alignment(self):
        text = format_stats([("s", [("a", 1), ("longer", 2)])])
        assert "  a       1" in text
