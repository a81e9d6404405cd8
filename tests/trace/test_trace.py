"""Tests for the protocol tracer."""

import pytest

from repro.core import HMTXSystem, MachineConfig
from repro.errors import MisspeculationError
from repro.obs.trace import (
    ProtocolTracer,
    format_address_history,
    format_summary,
    format_trace,
)
from repro.workloads import LinkedListWorkload

ADDR = 0x4000


@pytest.fixture
def traced_system():
    system = HMTXSystem(MachineConfig(num_cores=2))
    system.thread(0, core=0)
    system.thread(1, core=1)
    tracer = ProtocolTracer.attach(system.hierarchy)
    yield system, tracer
    tracer.detach()


class TestTracer:
    def test_records_accesses(self, traced_system):
        system, tracer = traced_system
        system.store(0, ADDR, 0, 1)
        system.load(1, ADDR, 0)
        kinds = [e.kind for e in tracer.events]
        assert "store" in kinds and "load" in kinds

    def test_records_version_creation(self, traced_system):
        system, tracer = traced_system
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 42)
        assert tracer.of_kind("versions")
        store_events = tracer.of_kind("store")
        assert any("+version" in e.detail for e in store_events)

    def test_records_commit_and_abort(self, traced_system):
        system, tracer = traced_system
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.store(0, ADDR, 1)
        system.commit_mtx(0, vid)
        assert tracer.of_kind("commit")
        v2 = system.allocate_vid()
        system.begin_mtx(0, v2)
        with pytest.raises(MisspeculationError):
            system.abort_mtx(0, v2)
        assert tracer.of_kind("abort")

    def test_records_misspeculation(self, traced_system):
        system, tracer = traced_system
        v1, v2 = system.allocate_vid(), system.allocate_vid()
        system.begin_mtx(1, v2)
        system.load(1, ADDR)
        system.begin_mtx(0, v1)
        with pytest.raises(MisspeculationError):
            system.store(0, ADDR, 9)
        events = tracer.of_kind("misspeculation")
        assert events and events[0].vid == v1

    def test_address_filter(self):
        system = HMTXSystem(MachineConfig(num_cores=2))
        system.thread(0, core=0)
        tracer = ProtocolTracer.attach(system.hierarchy, addresses={ADDR})
        system.store(0, ADDR, 0, 1)
        system.store(0, 0x9000, 0, 2)
        assert all(e.addr is None or e.addr == ADDR for e in tracer.events)
        tracer.detach()

    def test_detach_restores(self, traced_system):
        system, tracer = traced_system
        tracer.detach()
        before = len(tracer.events)
        system.store(0, ADDR, 0, 1)
        assert len(tracer.events) == before
        assert "store" not in vars(system.hierarchy)

    def test_capacity_bound(self):
        system = HMTXSystem(MachineConfig(num_cores=1))
        system.thread(0, core=0)
        tracer = ProtocolTracer.attach(system.hierarchy)
        tracer.capacity = 5
        for i in range(20):
            system.store(0, ADDR + i * 64, 0, i)
        assert len(tracer.events) == 5
        # The ring keeps the most recent events: the last store's.
        assert tracer.dropped == tracer.events[-1].seq - 5
        assert tracer.events[-1].addr == ADDR + 19 * 64
        tracer.detach()

    def test_sla_flag_traced(self, traced_system):
        system, tracer = traced_system
        system.hierarchy.memory.write_word(ADDR, 5)
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.load(0, ADDR)
        assert any("sla" in e.detail for e in tracer.of_kind("load"))


class TestFormatting:
    def test_format_trace(self, traced_system):
        system, tracer = traced_system
        system.store(0, ADDR, 0, 1)
        text = format_trace(tracer.events)
        assert "store" in text and "0x4000" in text

    def test_format_trace_limit(self, traced_system):
        system, tracer = traced_system
        for i in range(10):
            system.store(0, ADDR + 64 * i, 0, i)
        text = format_trace(tracer.events, limit=3)
        assert "more events" in text

    def test_address_history(self, traced_system):
        system, tracer = traced_system
        system.store(0, ADDR, 0, 1)
        system.store(0, 0x9000, 0, 2)
        text = format_address_history(tracer.events, ADDR)
        assert "0x4000" in text and "0x9000" not in text

    def test_summary(self, traced_system):
        system, tracer = traced_system
        system.store(0, ADDR, 0, 1)
        text = format_summary(tracer.summary())
        assert "store" in text


class TestTracedWorkload:
    def test_full_run_traces_cleanly(self):
        from repro.runtime.paradigms import run_workload
        workload = LinkedListWorkload(nodes=12)
        tracers = []

        def factory():
            system = HMTXSystem(MachineConfig())
            tracers.append(ProtocolTracer.attach(system.hierarchy))
            return system

        result = run_workload(workload, paradigm="PS-DSWP",
                              system_factory=factory)
        tracer = tracers[0]
        summary = tracer.summary()
        assert summary["commit"] == workload.iterations
        assert summary["load"] > 0 and summary["store"] > 0
        assert "misspeculation" not in summary
        tracer.detach()
