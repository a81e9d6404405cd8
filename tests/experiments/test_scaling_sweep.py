"""Tests for the topology scaling sweep (``python -m repro scaling``)."""

from __future__ import annotations

import json

import pytest

from repro.core.config import MachineConfig
from repro.experiments.engine import SweepEngine
from repro.experiments.scaling_sweep import (
    SCALING_PRESETS,
    format_scaling,
    reset_storm_curve,
    run_scaling,
    scaling_machine,
    scaling_report,
    scaling_spec,
)
from repro.topology import TopologySpec, topology_preset

QUICK = ("table2", "2s8c")
WORKLOADS = ("svc-kv",)
SYSTEMS = ("hmtx", "oracle")


@pytest.fixture(scope="module")
def result():
    return run_scaling(scale=0.25, presets=QUICK, systems=SYSTEMS,
                       workloads=WORKLOADS)


class TestSpec:
    def test_presets_resolve(self):
        for name in SCALING_PRESETS + ("2s8c", "4s16c"):
            spec = topology_preset(name)
            assert scaling_machine(name).topology in (None, spec)
        assert topology_preset("2s8c") \
            == TopologySpec(sockets=2, cores_per_socket=4)
        assert topology_preset("4s16c") \
            == TopologySpec(sockets=4, cores_per_socket=4)
        assert MachineConfig.for_topology("2s8c").topology \
            == scaling_machine("2s8c").topology
        with pytest.raises(KeyError):
            scaling_machine("nope")

    def test_machines_match_their_presets(self):
        flat = scaling_machine("table2")
        assert flat.topology is None and flat.coherence == "snoopy"
        big = scaling_machine("4s256c")
        assert big.num_cores == 256 and big.coherence == "directory"

    def test_spec_is_preset_major_and_observed(self):
        spec = scaling_spec(0.25, QUICK, SYSTEMS, WORKLOADS)
        assert len(spec.requests) == len(QUICK) * len(SYSTEMS) * len(WORKLOADS)
        assert all(r.observe for r in spec.requests)
        cores = [r.machine.num_cores for r in spec.requests]
        assert cores == sorted(cores)


class TestResult:
    def test_rows_cover_the_grid(self, result):
        assert {(r.preset, r.workload, r.system) for r in result.rows} == {
            (p, w, s) for p in QUICK for w in WORKLOADS for s in SYSTEMS}

    def test_rows_carry_per_socket_attribution(self, result):
        two_socket = [r for r in result.rows if r.preset == "2s8c"]
        assert two_socket
        for row in two_socket:
            assert row.sockets == 2
            assert set(row.commit_stall_cycles) <= {"0", "1"}

    def test_report_schema_and_json_round_trip(self, result):
        report = scaling_report(result)
        assert report["schema"] == "hmtx-scaling-report/1"
        assert len(report["rows"]) == len(result.rows)
        assert set(report["presets"]) == set(QUICK)
        encoded = json.dumps(report, indent=2, sort_keys=True)
        assert json.loads(encoded) == json.loads(
            json.dumps(json.loads(encoded), indent=2, sort_keys=True))

    def test_reset_storm_curve_is_hmtx_only(self, result):
        curve = reset_storm_curve(result)
        assert set(curve) == set(WORKLOADS)
        for points in curve.values():
            assert [p["preset"] for p in points] == list(QUICK)

    def test_format_renders(self, result):
        text = format_scaling(result)
        assert "VID-reset storm" in text
        assert "2s8c" in text


class TestDeterminism:
    def test_report_identical_across_engines_and_jobs(self, result):
        again = run_scaling(scale=0.25, presets=QUICK, systems=SYSTEMS,
                            workloads=WORKLOADS,
                            engine=SweepEngine(jobs=2), jobs=2)
        a = json.dumps(scaling_report(result), sort_keys=True)
        b = json.dumps(scaling_report(again), sort_keys=True)
        assert a == b
