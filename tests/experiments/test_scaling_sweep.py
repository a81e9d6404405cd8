"""Tests for the topology scaling sweep (``python -m repro scaling``)."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.config import MachineConfig
from repro.experiments import scaling_sweep
from repro.experiments.engine import SweepEngine
from repro.experiments.scaling_sweep import (
    SCALING_PRESETS,
    format_scaling,
    reset_storm_curve,
    run_scaling,
    scaling_machine,
    scaling_report,
    scaling_spec,
    main,
)
from repro.topology import TopologySpec, topology_preset
from repro.workloads.suite import SURVIVOR_PREFIX, workload_label

ROOT = pathlib.Path(__file__).resolve().parents[2]
SURVIVOR = "tests/svc/survivors/svc-adv-s42-01.json"

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


class TestSurvivorReplay:
    """``--survivor`` keys its replay by the survivor's own name."""

    def _main(self, tmp_path, survivor, history):
        return main(["--presets", "2s8c", "--workloads", "svc-kv",
                     "--systems", "hmtx", "--scale", "0.1",
                     "--survivor", str(survivor), "--history",
                     str(history), "--output",
                     str(tmp_path / "scaling.json")])

    def test_history_key_ignores_the_path_spelling(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(ROOT)
        for survivor in (ROOT / SURVIVOR, SURVIVOR):
            assert self._main(tmp_path, survivor, tmp_path / "hist") == 0
        runs = [json.loads(line) for line in
                (tmp_path / "hist" / "runs.jsonl").read_text().splitlines()]
        name = json.loads((ROOT / SURVIVOR).read_text())["name"]
        survivors = [run["workload"] for run in runs
                     if run["workload"].startswith(SURVIVOR_PREFIX)]
        assert survivors == [SURVIVOR_PREFIX + name] * 2
        report = json.loads((tmp_path / "scaling.json").read_text())
        assert report["survivor_replay"]["workload"] == survivors[0]

    def test_wrong_schema_fails_with_the_schema_error(self, tmp_path,
                                                       monkeypatch):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "not-a-survivor/1"}))
        assert workload_label("svc-kv") == "svc-kv"
        with pytest.raises(ValueError, match="not a .* document"):
            workload_label(SURVIVOR_PREFIX + str(bogus))
        # The file is read before the sweep, not after it.
        monkeypatch.setattr(scaling_sweep, "run_scaling",
                            lambda **kwargs: pytest.fail("swept first"))
        with pytest.raises(ValueError, match="not a .* document"):
            self._main(tmp_path, bogus, tmp_path / "hist")
