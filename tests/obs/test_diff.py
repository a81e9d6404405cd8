"""Differential attribution: zero self-diff, golden digests, scrub pair.

The committed goldens pin the full ``hmtx-obs-digest/1`` payload of two
deterministic observed runs: ``obs_digest_contended_list.json`` (the
closed-loop list) and ``obs_digest_svc_oltp_2s8c.json`` (the open-loop
OLTP service on the two-socket directory machine, which reaches spin
retagging, ``Arrive`` queue wait and the svc latency histograms).
Regenerate (only after an intentional modelled-behaviour change) with::

    PYTHONPATH=src python -m pytest tests/obs/test_diff.py --regen-goldens
"""

import dataclasses
import json
import pathlib

import pytest

from repro.core.config import MachineConfig
from repro.experiments.engine import RunRequest, SweepEngine, request_options
from repro.experiments.scaling_sweep import scaling_machine
from repro.obs.diff import (
    DIFF_SCHEMA,
    diff_bundles,
    diff_digest,
    format_diff,
    load_entries,
    render_json,
)
from repro.obs.history import bundle
from repro.obs.profile import DIGEST_SCHEMA, load_digest
from repro.topology import topology_preset

GOLDENS = pathlib.Path(__file__).parent.parent / "goldens"
GOLDEN_PATH = GOLDENS / "obs_digest_contended_list.json"
SVC_GOLDEN_PATH = GOLDENS / "obs_digest_svc_oltp_2s8c.json"


def observed_digest(jobs=1, **request_kwargs):
    engine = SweepEngine(jobs=jobs)
    defaults = dict(workload="contended-list", system="hmtx", scale=0.5,
                    observe=True)
    defaults.update(request_kwargs)
    (record,) = engine.run([RunRequest(**defaults)])
    return record.obs_digest, record


@pytest.fixture(scope="module")
def digest():
    payload, _ = observed_digest()
    return payload


def load_golden(request, path, digest):
    if request.config.getoption("--regen-goldens"):
        path.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden(request, digest):
    return load_golden(request, GOLDEN_PATH, digest)


class TestGoldenDigest:
    def test_current_run_matches_committed_golden(self, digest, golden):
        assert load_digest(digest) == load_digest(golden)

    def test_golden_schema_and_key_normalization(self, golden):
        assert golden["schema"] == DIGEST_SCHEMA
        loaded = load_digest(golden)
        # JSON delivers str socket keys; load_digest gives back ints.
        assert all(isinstance(k, int) for k in loaded["per_socket"])
        assert all(isinstance(k, int)
                   for k in loaded["hot_conflict_lines_by_socket"])

    def test_self_diff_is_exactly_zero(self, golden):
        diff = diff_digest(golden, golden)
        assert diff["zero"] is True
        assert diff["makespan"]["delta"] == 0
        assert diff["attribution"] == []
        assert all(entry["delta"] == 0
                   for entry in diff["phases"].values())

    def test_diff_artifact_identical_across_jobs(self, golden):
        serial, _ = observed_digest(jobs=1)
        parallel, _ = observed_digest(jobs=2)
        run = {"workload": "contended-list", "system": "hmtx",
               "scale": 0.5}
        one = render_json(diff_bundles(bundle([(run, serial)]),
                                       bundle([(run, golden)])))
        two = render_json(diff_bundles(bundle([(run, parallel)]),
                                       bundle([(run, golden)])))
        assert one == two
        assert json.loads(one)["zero"] is True


class TestSvcGoldenDigest:
    @pytest.fixture(scope="class")
    def svc_digest(self):
        payload, _ = observed_digest(
            workload="svc-oltp", machine=scaling_machine("2s8c"),
            options=request_options(seed=42))
        return payload

    @pytest.fixture(scope="class")
    def svc_golden(self, request, svc_digest):
        return load_golden(request, SVC_GOLDEN_PATH, svc_digest)

    def test_current_run_matches_committed_golden(self, svc_digest,
                                                  svc_golden):
        assert load_digest(svc_digest) == load_digest(svc_golden)

    def test_golden_pins_the_open_loop_paths(self, svc_golden):
        # Aborts, commit-order spins and the svc histograms all show up,
        # so the golden covers what the contended-list one does not.
        assert svc_golden["aborts"] > 0
        assert svc_golden["categories"]["commit_stall"] > 0
        assert svc_golden["categories"]["abort_replay"] > 0
        assert {"svc_queue_wait_cycles", "svc_commit_latency_cycles"} \
            <= set(svc_golden["histograms"])


def scrub_pair():
    """Closed-loop run pair with the reset scrub doubled (vid_bits=4
    forces a mid-run reset onto the critical path)."""
    digests = []
    for scrub in (1.0, 2.0):
        topo = dataclasses.replace(topology_preset("2s8c"),
                                   scrub_scale=scrub)
        machine = dataclasses.replace(MachineConfig.for_topology(topo),
                                      vid_bits=4)
        payload, record = observed_digest(machine=machine, scale=1.0)
        digests.append((payload, record))
    return digests


class TestScrubAttribution:
    @pytest.fixture(scope="class")
    def pair_diff(self):
        (before, _), (after, _) = scrub_pair()
        return diff_digest(before, after)

    def test_doubled_scrub_slows_the_makespan(self, pair_diff):
        assert pair_diff["makespan"]["delta"] > 0
        assert pair_diff["zero"] is False

    def test_majority_of_delta_is_vid_reset(self, pair_diff):
        top = pair_diff["attribution"][0]
        assert top["phase"] == "vid_reset"
        assert top["share"] > 0.5

    def test_reset_count_is_unchanged(self, pair_diff):
        # Same number of resets, each one costlier: the fingerprint that
        # separates "scrub got slower" from "resets got more frequent".
        assert pair_diff["vid_resets"]["delta"] == 0
        assert pair_diff["vid_resets"]["before"] >= 1


class TestBundlePairing:
    def test_bare_digest_files_pair_by_constant_key(self, tmp_path, golden):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(golden), encoding="utf-8")
        b.write_text(json.dumps(golden), encoding="utf-8")
        artifact = diff_bundles(load_entries(str(a)), load_entries(str(b)))
        assert artifact["schema"] == DIFF_SCHEMA
        assert len(artifact["pairs"]) == 1
        assert artifact["zero"] is True
        assert "ZERO DELTA" in format_diff(artifact)

    def test_unmatched_runs_are_reported_not_dropped(self, golden):
        run_a = {"workload": "contended-list", "system": "hmtx",
                 "scale": 0.5}
        run_b = {"workload": "other", "system": "hmtx", "scale": 0.5}
        artifact = diff_bundles(bundle([(run_a, golden)]),
                                bundle([(run_b, golden)]))
        assert artifact["pairs"] == []
        assert artifact["only_in_a"] == ["contended-list/hmtx/0.5"]
        assert artifact["only_in_b"] == ["other/hmtx/0.5"]
        assert artifact["zero"] is False

    def test_unrecognized_schema_raises(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "something/9"}),
                        encoding="utf-8")
        with pytest.raises(ValueError):
            load_entries(str(path))


def test_format_diff_names_the_moved_phase():
    (before, _), (after, _) = scrub_pair()
    run = {"workload": "contended-list", "system": "hmtx", "scale": 1.0}
    artifact = diff_bundles(bundle([(run, before)]),
                            bundle([(run, after)]))
    text = format_diff(artifact)
    assert "contended-list/hmtx: makespan +" in text
    assert "vid_reset" in text
    assert "(deltas present)" in text
