"""Golden pin of the paradigm × backend matrix.

Every execution paradigm runs through the same driver on every system
label, so one golden of ``execute_request(...).to_report()`` per cell
catches any drift in machine setup, thread placement, abort recovery or
result assembly, whichever paradigm it touches.  The cells cover each
paradigm on a benchmark that supports it, under every system label, plus
the two contention scenarios that take the recovery ladder's other
rungs: ``contended-list`` under ``backoff`` recovers from aborts, and
``capacity-hog`` under ``capacity-aware`` on its tiny machine ends in
the serial fallback.

Regenerate (only after an *intentional* modelled-behaviour change) with::

    PYTHONPATH=src python -m pytest \
        tests/integration/test_paradigm_matrix_golden.py --regen-goldens
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.engine import RunRequest, execute_request
from repro.workloads.contended import CapacityHogWorkload

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "goldens" \
    / "paradigm_matrix.json"

SCALE = 0.25

#: Paradigms each benchmark runs under (``None`` is its Table 1 default
#: on the ``sequential`` label, i.e. the Sequential baseline).
PARADIGM_RUNS = (("052.alvinn", ("DOALL", "DOACROSS")),
                 ("130.li", ("DSWP", "PS-DSWP", "DOACROSS")))


def _matrix():
    requests = {}
    for workload, _ in PARADIGM_RUNS:
        requests[f"sequential:{workload}"] = RunRequest(
            workload=workload, system="sequential", scale=SCALE)
    for system in ("hmtx", "hmtx-nosla", "smtx-minimal", "oracle"):
        for workload, paradigms in PARADIGM_RUNS:
            for paradigm in paradigms:
                requests[f"{system}:{workload}:{paradigm}"] = RunRequest(
                    workload=workload, system=system, scale=SCALE,
                    paradigm=paradigm)
    requests["smtx-minimal:130.li:Sequential"] = RunRequest(
        workload="130.li", system="smtx-minimal", scale=SCALE,
        paradigm="Sequential")
    requests["contended-list:backoff"] = RunRequest(
        workload="contended-list", system="hmtx", scale=SCALE,
        paradigm="PS-DSWP", policy="backoff")
    requests["capacity-hog:capacity-aware"] = RunRequest(
        workload="capacity-hog", system="hmtx", scale=SCALE,
        paradigm="PS-DSWP", policy="capacity-aware",
        machine=CapacityHogWorkload.tiny_config())
    return requests


MATRIX = _matrix()


@pytest.fixture(scope="module")
def goldens(request):
    if request.config.getoption("--regen-goldens"):
        produced = {name: execute_request(req).to_report()
                    for name, req in MATRIX.items()}
        GOLDEN_PATH.write_text(json.dumps(produced, indent=2,
                                          sort_keys=True) + "\n")
        return produced
    if not GOLDEN_PATH.exists():
        pytest.fail(f"{GOLDEN_PATH} missing; run with --regen-goldens")
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_matrix(goldens):
    assert sorted(goldens) == sorted(MATRIX)


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_cell_matches_golden(goldens, name):
    report = json.loads(json.dumps(execute_request(MATRIX[name]).to_report()))
    assert report == goldens[name]
    assert report["correct"]


def test_recovery_rungs_are_exercised(goldens):
    assert goldens["contended-list:backoff"]["recoveries"] > 0
    assert goldens["capacity-hog:capacity-aware"]["serial_fallback"]
