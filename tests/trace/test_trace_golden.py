"""Golden trace streams: what both tracers record, pinned byte for byte.

``trace_streams.json`` holds the ``analyze --racecheck`` coverage of the
quick-scale suite, a sha256 of every rendered :class:`BackendTracer`
stream it replays, and a sha256 of the :class:`ProtocolTracer` stream of
``run ispell --scale 0.3 --trace`` on hmtx and smtx-minimal.  A change to
what a tracer records, how it numbers or renders events, or what it keeps
once its ring fills shows up here.  Regenerate (only after an intentional
change to the recorded streams) with::

    PYTHONPATH=src python -m pytest tests/trace/test_trace_golden.py \
        --regen-goldens
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.traces import (
    QUICK_SCALE,
    capture_trace,
    default_workloads,
    racecheck_backends,
)
from repro.backends import backend_names
from repro.experiments.engine import RunRequest, run_request
from repro.obs.tap import Tap
from repro.obs.trace import ProtocolTracer, format_trace

GOLDEN_PATH = (pathlib.Path(__file__).parent.parent / "goldens"
               / "trace_streams.json")

PROTOCOL_SYSTEMS = ("hmtx", "smtx-minimal")


def fingerprint(tracer):
    text = format_trace(tracer.events, dropped=tracer.dropped)
    return {"events": len(tracer.events),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def backend_streams():
    streams = {}
    for backend in backend_names():
        for workload in default_workloads():
            tracer, _, _ = capture_trace(backend, workload, QUICK_SCALE)
            streams[f"{backend}/{workload}"] = fingerprint(tracer)
    return streams


def protocol_streams():
    streams = {}
    for system in PROTOCOL_SYSTEMS:
        tracer = ProtocolTracer()
        with Tap(tracer).activate():
            run_request(RunRequest(workload="ispell", system=system,
                                   scale=0.3))
        tracer.detach()
        streams[system] = fingerprint(tracer)
    return streams


@pytest.fixture(scope="module")
def current():
    report = racecheck_backends(scale=QUICK_SCALE)
    assert report.ok and not report.findings
    return {"racecheck_coverage": report.coverage,
            "backend_streams": backend_streams(),
            "protocol_streams": protocol_streams()}


@pytest.fixture(scope="module")
def golden(request, current):
    if request.config.getoption("--regen-goldens"):
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestTraceGolden:
    def test_racecheck_coverage(self, current, golden):
        assert current["racecheck_coverage"] == golden["racecheck_coverage"]

    def test_backend_streams(self, current, golden):
        assert current["backend_streams"] == golden["backend_streams"]

    def test_protocol_streams(self, current, golden):
        assert current["protocol_streams"] == golden["protocol_streams"]
