"""S3: golden Chrome-trace timeline for the contended-list scenario, plus
the exporter's span-nesting schema checks.

The golden pins the full observed timeline — per-core tracks, per-VID
async spans, conflict instants, counter tracks — of the same
deterministic contended-list run the fast-path golden suite replays.
Regenerate (only after an intentional modelled-behaviour or exporter
change) with::

    PYTHONPATH=src python -m pytest tests/obs/test_export_golden.py \
        --regen-goldens
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.obs.export import (
    GANTT_GLYPHS,
    render_gantt,
    to_chrome_trace,
    validate_trace,
    write_chrome_trace,
)
from repro.obs.profile import attribute
from repro.obs.session import ObsSession
from repro.obs.timeline import build_timeline
from repro.runtime.paradigms import run_workload
from repro.txctl import ContentionManager, make_policy
from repro.workloads.contended import HighContentionListWorkload

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "goldens" \
    / "timeline_contended_list.json"


@pytest.fixture(scope="module")
def observed():
    """The golden scenario (contended-list, backoff) observed end to end."""
    workload = HighContentionListWorkload(nodes=24, rmw_per_iteration=2)
    manager = ContentionManager(policy=make_policy("backoff"))
    session = ObsSession()
    with session.activate():
        result = run_workload(workload, paradigm="PS-DSWP", manager=manager)
    session.detach()
    session.finalize(result)
    timeline = build_timeline(session, attribute(session))
    trace = to_chrome_trace(timeline, label="contended-list/hmtx")
    return session, result, timeline, trace


@pytest.fixture(scope="module")
def golden(request, observed):
    _, _, _, trace = observed
    if request.config.getoption("--regen-goldens"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(trace, indent=1,
                                          sort_keys=True) + "\n")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"{GOLDEN_PATH} missing; run with --regen-goldens")
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenTimeline:
    def test_trace_matches_golden(self, observed, golden):
        _, _, _, trace = observed
        assert trace["otherData"] == golden["otherData"]
        assert len(trace["traceEvents"]) == len(golden["traceEvents"])
        for got, want in zip(trace["traceEvents"], golden["traceEvents"]):
            assert got == want

    def test_golden_file_validates(self, golden):
        counts = validate_trace(golden)
        # Metadata, slices, paired spans, instants and counters must all
        # be present — a timeline missing a section is not golden.
        for ph in ("M", "X", "b", "e", "i", "C"):
            assert counts.get(ph, 0) > 0, (ph, counts)
        assert counts["b"] == counts["e"]

    def test_write_matches_golden_bytes(self, observed, tmp_path):
        _, _, timeline, _ = observed
        out = tmp_path / "timeline.json"
        write_chrome_trace(timeline, str(out), label="contended-list/hmtx")
        assert out.read_text() == GOLDEN_PATH.read_text()

    def test_spans_reconcile_with_system_stats(self, observed, golden):
        # The acceptance contract, checked against the exported artifact:
        # per-VID spans and abort instants reconcile with SystemStats.
        _, result, _, _ = observed
        stats = result.system.stats
        begins = [e for e in golden["traceEvents"] if e["ph"] == "b"]
        committed = sum(1 for e in begins
                        if e["args"].get("outcome") == "commit")
        assert committed == stats.committed
        aborts = [e for e in golden["traceEvents"]
                  if e["ph"] == "i" and e["name"] == "abort"]
        assert len(aborts) == stats.aborted
        by_cause = {}
        for event in aborts:
            cause = event["args"]["cause"]
            by_cause[cause] = by_cause.get(cause, 0) + 1
        assert by_cause == {k: v for k, v in
                            stats.contention.by_cause.items() if v}

    def test_gantt_renders_every_thread(self, observed):
        _, _, timeline, _ = observed
        text = render_gantt(timeline, width=40)
        for tid, core in timeline.thread_cores.items():
            assert f"t{tid}/c{core} |" in text
        assert "legend:" in text
        assert GANTT_GLYPHS["useful"] in text


class TestSchemaChecks:
    def _minimal(self) -> dict:
        return {
            "traceEvents": [
                {"ph": "M", "pid": 1, "name": "process_name",
                 "args": {"name": "t"}},
                {"ph": "b", "pid": 1, "tid": 0, "cat": "tx", "id": 0,
                 "name": "VID 1", "ts": 10,
                 "args": {"vid": 1, "attempt": 0, "allocate_ts": 10,
                          "begin_ts": 12, "exec_end_ts": 20,
                          "end_ts": 25}},
                {"ph": "e", "pid": 1, "tid": 0, "cat": "tx", "id": 0,
                 "name": "VID 1", "ts": 25, "args": {}},
            ],
        }

    def test_minimal_valid(self):
        assert validate_trace(self._minimal()) == {"M": 1, "b": 1, "e": 1}

    def test_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_trace({"otherData": {}})

    def test_unpaired_async_end(self):
        trace = self._minimal()
        del trace["traceEvents"][1]
        with pytest.raises(ValueError, match="end without begin"):
            validate_trace(trace)

    def test_unterminated_span(self):
        trace = self._minimal()
        del trace["traceEvents"][2]
        with pytest.raises(ValueError, match="unterminated"):
            validate_trace(trace)

    def test_double_open_rejected(self):
        trace = self._minimal()
        trace["traceEvents"].insert(2, dict(trace["traceEvents"][1]))
        with pytest.raises(ValueError, match="opened twice"):
            validate_trace(trace)

    def test_end_before_begin(self):
        trace = self._minimal()
        trace["traceEvents"][2]["ts"] = 5
        with pytest.raises(ValueError, match="ends at 5 before"):
            validate_trace(trace)

    def test_nesting_violation_rejected(self):
        trace = self._minimal()
        trace["traceEvents"][1]["args"]["begin_ts"] = 30  # > exec_end_ts
        with pytest.raises(ValueError, match="not nested"):
            validate_trace(trace)

    def test_open_ts_must_equal_allocate(self):
        trace = self._minimal()
        trace["traceEvents"][1]["ts"] = 11
        with pytest.raises(ValueError, match="allocate_ts"):
            validate_trace(trace)

    def test_conflict_outside_span_rejected(self):
        trace = self._minimal()
        trace["traceEvents"].append(
            {"ph": "i", "pid": 1, "tid": 0, "s": "g", "name": "conflict",
             "ts": 99, "args": {"vid": 1}})
        with pytest.raises(ValueError, match="falls outside"):
            validate_trace(trace)

    def test_negative_duration_rejected(self):
        trace = self._minimal()
        trace["traceEvents"].append(
            {"ph": "X", "pid": 1, "tid": 0, "cat": "cycles",
             "name": "useful", "ts": 0, "dur": -1, "args": {}})
        with pytest.raises(ValueError, match="bad ts/dur"):
            validate_trace(trace)
