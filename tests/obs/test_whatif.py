"""The causal what-if profiler: knob registry, sensitivities, artifact."""

import json
import pathlib

import pytest

from repro.core.config import MachineConfig
from repro.experiments.scaling_sweep import scaling_machine
from repro.obs.whatif import (
    KNOBS,
    WHATIF_SCHEMA,
    format_whatif,
    knobs_by_name,
    run_whatif,
    write_report,
)


class TestKnobRegistry:
    def test_unknown_knob_raises(self):
        with pytest.raises(KeyError):
            knobs_by_name(["reset_scrub", "warp_drive"])

    def test_apply_round_trips_at_factor_one(self):
        machine = scaling_machine("2s8c")
        for knob in KNOBS:
            if not knob.applies(machine):
                continue
            perturbed, value = knob.apply(machine, 1.0)
            assert value == knob.value(machine)
            assert perturbed == machine

    def test_perturbation_changes_the_cache_key(self):
        from repro.experiments.engine import config_digest
        machine = scaling_machine("2s8c")
        for knob in KNOBS:
            if not knob.applies(machine):
                continue
            up, _ = knob.apply(machine, 1.25)
            assert config_digest(up) != config_digest(machine), knob.name

    def test_dir_occupancy_gated_on_directory_coherence(self):
        snoopy = MachineConfig()  # flat default: snooping bus
        assert snoopy.coherence != "directory"
        knob = knobs_by_name(["dir_occupancy"])[0]
        assert not knob.applies(snoopy)
        assert knob.applies(scaling_machine("2s8c"))


@pytest.fixture(scope="module")
def quick_report():
    return run_whatif(presets=("2s8c",), systems=("hmtx",),
                      workloads=("contended-list",),
                      knobs=("reset_scrub", "cross_socket_hop"))


class TestReport:
    def test_schema_and_shape(self, quick_report):
        assert quick_report["schema"] == WHATIF_SCHEMA
        (combo,) = quick_report["combos"]
        assert combo["preset"] == "2s8c"
        assert combo["workload"] == "contended-list"
        assert {row["knob"] for row in combo["knobs"]} \
            == {"reset_scrub", "cross_socket_hop"}
        assert combo["ranking"] == [row["knob"] for row in combo["knobs"]]

    def test_rows_ranked_by_absolute_sensitivity(self, quick_report):
        (combo,) = quick_report["combos"]
        magnitudes = [abs(row["sensitivity"]) for row in combo["knobs"]]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_baseline_phase_shares_sum_to_one(self, quick_report):
        (combo,) = quick_report["combos"]
        assert sum(combo["baseline"]["phase_shares"].values()) \
            == pytest.approx(1.0, abs=0.01)

    def test_cross_hop_dominates_a_contended_run(self, quick_report):
        # Every cross-socket conflict pays the interconnect hop; the
        # scrub never fires here (no reset).  Sensitivity must reflect
        # that, whatever the cycle shares say — the exact point of
        # causal profiling.
        (combo,) = quick_report["combos"]
        by_knob = {row["knob"]: row for row in combo["knobs"]}
        assert by_knob["cross_socket_hop"]["sensitivity"] \
            > abs(by_knob["reset_scrub"]["sensitivity"])
        assert by_knob["cross_socket_hop"]["sensitivity"] > 0

    def test_report_is_deterministic_across_jobs(self):
        kwargs = dict(presets=("2s8c",), systems=("hmtx",),
                      workloads=("svc-kv",), knobs=("l1_miss",),
                      scale=0.5)
        serial = run_whatif(jobs=1, **kwargs)
        parallel = run_whatif(jobs=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            run_whatif(delta=0.0)
        with pytest.raises(ValueError):
            run_whatif(delta=1.0)

    def test_write_report_and_text_view(self, quick_report, tmp_path):
        path = write_report(quick_report, tmp_path / "w.json")
        again = json.loads(path.read_text(encoding="utf-8"))
        assert again == json.loads(json.dumps(quick_report))
        text = format_whatif(quick_report)
        assert "contended-list/hmtx on 2s8c" in text
        assert "cycle shares for contrast" in text


def _committed_report():
    return json.loads(
        (pathlib.Path(__file__).parents[2] / "REPORT_whatif.json")
        .read_text(encoding="utf-8"))


def test_committed_artifact_covers_two_presets_and_backends():
    report = _committed_report()
    assert report["schema"] == WHATIF_SCHEMA
    presets = {combo["preset"] for combo in report["combos"]}
    systems = {combo["system"] for combo in report["combos"]}
    assert len(presets) >= 2
    assert len(systems) >= 2
    for combo in report["combos"]:
        assert combo["knobs"], combo["preset"]


@pytest.mark.parametrize("preset,system", [
    ("2s8c", "hmtx"), ("2s8c", "smtx-minimal"),
    ("4s16c", "hmtx"), ("4s16c", "smtx-minimal"),
])
def test_committed_svc_kv_combos_regenerate_exactly(preset, system):
    """Each committed ``svc-kv`` combo is exactly what a one-combo run of
    the same delta and scale gives today, and so are the report's
    schema, scale, delta, preset description and knob table."""
    committed = _committed_report()
    (combo,) = [c for c in committed["combos"]
                if (c["preset"], c["system"], c["workload"])
                == (preset, system, "svc-kv")]
    fresh = json.loads(json.dumps(run_whatif(
        presets=(preset,), systems=(system,), workloads=("svc-kv",),
        delta=committed["delta"], scale=committed["scale"])))
    assert fresh["combos"] == [combo]
    for key in ("schema", "scale", "delta", "knobs"):
        assert fresh[key] == committed[key], key
    assert fresh["presets"] == {preset: committed["presets"][preset]}
