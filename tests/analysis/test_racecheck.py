"""The trace race detector: synthetic violation streams + real backends.

Synthetic streams pin each rule's trigger exactly; the end-to-end tests
then require every registered backend to trace clean on a real workload
— the conformance contract the CI analysis job enforces at larger scale.
"""

import pytest

from repro.analysis.racecheck import check_trace
from repro.analysis.traces import capture_trace, racecheck_backends
from repro.backends import backend_names
from repro.obs.trace import TraceEvent

WORD = 0x1000


def ev(seq, kind, vid=None, addr=None, value=None):
    return TraceEvent(seq, kind, None, vid, addr, "", value)


class TestForwardingReplay:
    def test_clean_forwarding_chain_passes(self):
        report = check_trace([
            ev(1, "store", vid=1, addr=WORD, value=10),
            ev(2, "load", vid=2, addr=WORD, value=10),   # forwarded
            ev(3, "store", vid=2, addr=WORD, value=20),
            ev(4, "load", vid=3, addr=WORD, value=20),   # greatest <= 3
            ev(5, "load", vid=1, addr=WORD, value=10),   # own version
            ev(6, "commit", vid=1),
            ev(7, "commit", vid=2),
            ev(8, "commit", vid=3),
        ])
        assert report.ok
        assert report.coverage["loads_checked"] == 3

    def test_lost_forwarded_value_is_rc001(self):
        report = check_trace([
            ev(1, "store", vid=1, addr=WORD, value=10),
            ev(2, "load", vid=2, addr=WORD, value=99),   # missed the store
        ])
        assert not report.ok
        finding = report.findings[0]
        assert finding.rule == "RC001"
        assert "forwarding spec requires 10" in finding.message

    def test_aborted_value_leaking_is_rc001(self):
        report = check_trace([
            ev(1, "store", vid=0, addr=WORD, value=5),   # committed baseline
            ev(2, "store", vid=1, addr=WORD, value=10),
            ev(3, "abort"),
            ev(4, "load", vid=2, addr=WORD, value=10),   # doomed value leaked
        ])
        assert not report.ok
        assert report.findings[0].rule == "RC001"
        assert "uncommitted store by VID" not in report.findings[0].detail

    def test_unknown_baseline_is_adopted_then_checked(self):
        report = check_trace([
            ev(1, "load", vid=0, addr=WORD, value=7),    # first touch
            ev(2, "load", vid=0, addr=WORD, value=8),    # now judged
        ])
        assert not report.ok
        assert report.coverage["loads_unknown_baseline"] == 1
        assert report.coverage["loads_checked"] == 1

    def test_word_granularity_aliases_subword_addresses(self):
        report = check_trace([
            ev(1, "store", vid=1, addr=WORD, value=3),
            ev(2, "load", vid=1, addr=WORD + 4, value=3),  # same 8-byte word
        ], word_size=8)
        assert report.ok
        assert report.coverage["loads_checked"] == 1


class TestOrderingRules:
    def test_out_of_order_commit_is_rc002(self):
        report = check_trace([ev(1, "commit", vid=2)])
        assert not report.ok
        assert report.findings[0].rule == "RC002"

    def test_access_under_committed_vid_is_rc002(self):
        report = check_trace([
            ev(1, "commit", vid=1),
            ev(2, "store", vid=1, addr=WORD, value=1),
        ])
        assert not report.ok
        assert any(f.rule == "RC002" and "store" in f.message
                   for f in report.findings)

    def test_abort_blamed_on_committed_vid_is_rc003(self):
        report = check_trace([
            ev(1, "commit", vid=1),
            ev(2, "misspeculation", vid=1, addr=WORD),
            ev(3, "abort"),
        ])
        assert not report.ok
        assert report.findings[0].rule == "RC003"

    def test_misspeculation_on_live_vid_is_fine(self):
        report = check_trace([
            ev(1, "commit", vid=1),
            ev(2, "misspeculation", vid=2, addr=WORD),
            ev(3, "abort"),
        ])
        assert report.ok

    def test_vid_reset_with_live_stores_is_rc004(self):
        report = check_trace([
            ev(1, "store", vid=1, addr=WORD, value=1),
            ev(2, "vid_reset"),
        ])
        assert not report.ok
        assert report.findings[0].rule == "RC004"

    def test_vid_reset_after_commit_is_clean_and_restarts_numbering(self):
        report = check_trace([
            ev(1, "store", vid=1, addr=WORD, value=1),
            ev(2, "commit", vid=1),
            ev(3, "vid_reset"),
            ev(4, "commit", vid=1),                      # new epoch
        ])
        assert report.ok


class TestRealBackends:
    @pytest.mark.parametrize("backend", backend_names())
    def test_backend_traces_clean_on_a_real_workload(self, backend):
        tracer, result, workload = capture_trace(backend, "ispell",
                                                 scale=0.1)
        assert tracer.events, "tracer recorded nothing"
        report = check_trace(tracer.events, label=backend)
        assert report.ok, "\n".join(f.render() for f in report.findings)
        assert workload.observed_result(result.system) \
            == workload.expected_result(result.system)

    def test_racecheck_backends_merges_and_labels(self):
        report = racecheck_backends(backends=("hmtx",),
                                    workloads=("ispell",), scale=0.1)
        assert report.ok
        assert report.coverage["traces"] == 1
        assert report.coverage["backends"] == "hmtx"

    def test_contended_workload_traces_clean_under_aborts(self):
        tracer, result, workload = capture_trace("hmtx", "contended-list",
                                                 scale=0.25)
        report = check_trace(tracer.events, label="hmtx/contended-list")
        assert report.ok, "\n".join(f.render() for f in report.findings)
