"""The one trace ring, as both tracers use it, and dropped-event surfacing."""

from __future__ import annotations

import pytest

from repro.obs.trace import BackendTracer, ProtocolTracer, format_trace

#: Each tracer with the default capacity it keeps.
TRACERS = {BackendTracer: 1_000_000, ProtocolTracer: 100_000}


@pytest.fixture(params=sorted(TRACERS, key=lambda cls: cls.__name__),
                ids=lambda cls: cls.__name__)
def tracer_cls(request):
    return request.param


class TestRingBuffer:
    def test_default_capacity(self, tracer_cls):
        assert tracer_cls().capacity == TRACERS[tracer_cls]

    def test_below_capacity_nothing_dropped(self, tracer_cls):
        tracer = tracer_cls(None, capacity=8)
        for i in range(5):
            tracer.record("load", vid=0, addr=i * 64, value=i)
        assert len(tracer.events) == 5
        assert tracer.dropped == 0

    def test_overflow_evicts_oldest_keeps_newest(self, tracer_cls):
        tracer = tracer_cls(None, capacity=5)
        for i in range(12):
            tracer.record("store", vid=0, addr=i * 64, value=i)
        assert len(tracer.events) == 5
        assert tracer.dropped == 7
        # The surviving window is the most recent one, in order.
        assert [e.seq for e in tracer.events] == [8, 9, 10, 11, 12]
        assert [e.value for e in tracer.events] == [7, 8, 9, 10, 11]

    def test_capacity_adjustable_after_construction(self, tracer_cls):
        tracer = tracer_cls()
        tracer.capacity = 3
        for i in range(10):
            tracer.record("load", vid=0, addr=i * 64, value=i)
        assert len(tracer.events) == 3
        assert tracer.dropped == 7


class TestDroppedSurfacing:
    def test_format_trace_header_warns_on_drop(self, tracer_cls):
        tracer = tracer_cls(None, capacity=2)
        for i in range(6):
            tracer.record("load", vid=0, addr=i * 64, value=i)
        text = format_trace(tracer.events, dropped=tracer.dropped)
        first = text.splitlines()[0]
        assert "ring overflow" in first
        assert "4 oldest events dropped" in first
        assert "most recent 2" in first

    def test_complete_trace_has_no_warning(self, tracer_cls):
        tracer = tracer_cls(None, capacity=16)
        tracer.record("commit", vid=1, detail="VID 1")
        text = format_trace(tracer.events, dropped=tracer.dropped)
        assert "ring overflow" not in text
