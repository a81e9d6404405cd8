"""Topology equivalence and golden pinning (PR-8 satellite S3).

Two contracts guard the topology layer:

1. **One socket is not a mode.**  A 1-socket :class:`TopologySpec` must
   be *simulation-identical* to the flat machine — same cycles, same
   stats, same cache contents — for any shape and placement policy.  The
   hypothesis property below drives randomly-shaped 1-socket machines
   against their flat twins and compares full run snapshots.

2. **The 2-socket machine is pinned.**  A seeded PS-DSWP run on a
   2-socket × 4-core directory machine is snapshotted against a checked-in
   golden, so NUMA-latency or slice-routing changes cannot drift silently.
   Regenerate (only after an intentional modelled-behaviour change) with::

       PYTHONPATH=src python -m pytest \
           tests/integration/test_topology_golden.py --regen-goldens
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MachineConfig
from repro.runtime.paradigms import run_workload
from repro.topology import TopologySpec
from repro.workloads.linkedlist import LinkedListWorkload

from .test_fastpath_golden import snapshot

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "goldens" \
    / "topology_2socket.json"


def _run(machine: MachineConfig, nodes: int) -> dict:
    workload = LinkedListWorkload(nodes=nodes, work_cycles=60)
    result = run_workload(workload, paradigm="PS-DSWP", config=machine)
    return snapshot(result, workload)


# ----------------------------------------------------------------------
# Property: any 1-socket spec is the flat machine
# ----------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(cores=st.integers(min_value=2, max_value=6),
       nodes=st.integers(min_value=4, max_value=20),
       placement=st.sampled_from(["pack", "spread"]),
       coherence=st.sampled_from(["snoopy", "directory"]))
def test_one_socket_spec_is_simulation_identical_to_flat(
        cores, nodes, placement, coherence):
    spec = TopologySpec(sockets=1, cores_per_socket=cores)
    flat = MachineConfig(num_cores=cores, coherence=coherence,
                         placement=placement)
    one_socket = MachineConfig(num_cores=cores, coherence=coherence,
                               placement=placement, topology=spec)
    assert _run(flat, nodes) == _run(one_socket, nodes)


def test_flat_preset_machine_equals_default_machine():
    assert _run(MachineConfig.for_topology("table2"), 16) \
        == _run(MachineConfig(), 16)


# ----------------------------------------------------------------------
# Seeded 2-socket golden
# ----------------------------------------------------------------------

def _run_two_socket() -> dict:
    machine = MachineConfig.for_topology(
        TopologySpec(sockets=2, cores_per_socket=4))
    return _run(machine, 24)


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--regen-goldens"):
        produced = _run_two_socket()
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(produced, indent=2,
                                          sort_keys=True) + "\n")
        return produced
    if not GOLDEN_PATH.exists():
        pytest.fail(f"{GOLDEN_PATH} missing; run with --regen-goldens")
    return json.loads(GOLDEN_PATH.read_text())


def test_two_socket_run_matches_golden(golden):
    produced = json.loads(json.dumps(_run_two_socket()))
    assert produced.keys() == golden.keys()
    for section in golden:
        assert produced[section] == golden[section], (
            f"2-socket golden: section {section!r} diverged")


def test_two_socket_run_is_deterministic():
    assert _run_two_socket() == _run_two_socket()
