"""Attach/detach roundtrip over the fast-path version indices.

Tracing wraps the hierarchy's hot methods; the wrapped calls must flow
through the same epoch/index bookkeeping as untraced ones, a traced run
must produce bit-identical statistics, and ``detach()`` must work in any
order so subscribers sharing an object survive each other.
"""

import pytest

from repro.coherence.hierarchy import MemoryHierarchy
from repro.core import HMTXSystem, MachineConfig
from repro.obs.session import ObsSession
from repro.runtime.paradigms import run_workload
from repro.obs.trace import BackendTracer, ProtocolTracer
from repro.workloads import make_benchmark

#: The hierarchy methods a protocol tracer observes.
#: What a protocol tracer observes: every access, a miss's responder and
#: the broadcasts.
HIERARCHY_METHODS = ("_access", "_fetch", "commit", "abort", "vid_reset")

SCALE = 0.2


def run_traced(attach):
    """Run ispell on HMTX; ``attach`` hooks each fresh system."""
    tracers = []

    def factory():
        system = HMTXSystem(MachineConfig())
        attach(system, tracers)
        return system

    result = run_workload(make_benchmark("ispell", SCALE),
                          system_factory=factory)
    return result, tracers


class TestRoundtrip:
    def test_traced_run_is_bit_identical(self):
        """Wrapping adds observation, never behaviour."""
        plain, _ = run_traced(lambda system, tracers: None)
        traced, tracers = run_traced(
            lambda system, tracers: tracers.append(
                ProtocolTracer.attach(system.hierarchy)))
        assert tracers and tracers[-1].events
        assert traced.cycles == plain.cycles
        assert traced.system.stats == plain.system.stats
        assert traced.system.last_committed == plain.system.last_committed

    def test_indices_intact_under_tracing(self):
        """The PR-2 fast-path indices stay coherent through wrapped calls."""
        traced, tracers = run_traced(
            lambda system, tracers: tracers.append(
                ProtocolTracer.attach(system.hierarchy)))
        traced.system.hierarchy.check_invariants()  # includes index checks
        for tracer in tracers:
            tracer.detach()
        traced.system.hierarchy.check_invariants()

    def test_detach_restores_originals(self):
        system = HMTXSystem(MachineConfig())
        tracer = ProtocolTracer.attach(system.hierarchy)
        wrapped = system.hierarchy._access  # instance-attr function
        assert getattr(wrapped, "__func__", None) \
            is not MemoryHierarchy._access
        tracer.detach()
        for name in HIERARCHY_METHODS:
            restored = getattr(system.hierarchy, name)
            assert restored.__func__ is getattr(MemoryHierarchy, name), name
        # Nothing of the tracer is left on the instance.
        assert not set(HIERARCHY_METHODS) & set(vars(system.hierarchy))

    def test_nested_tracers_unwind_like_a_stack(self):
        """Regression: detaching the outer tracer must not resurrect the
        raw method over the inner tracer's wrapper (the insertion-order
        detach bug silently stopped the surviving tracer's recording)."""
        system = HMTXSystem(MachineConfig())
        system.thread(0, core=0)
        inner = ProtocolTracer.attach(system.hierarchy)
        outer = ProtocolTracer.attach(system.hierarchy)

        system.store(0, 0x40, 1)
        assert len(inner.of_kind("store")) == 1
        assert len(outer.of_kind("store")) == 1

        outer.detach()
        system.store(0, 0x80, 2)              # inner must still see this
        assert len(inner.of_kind("store")) == 2
        assert len(outer.of_kind("store")) == 1

        inner.detach()
        system.store(0, 0xC0, 3)              # nobody records any more
        assert len(inner.of_kind("store")) == 2
        assert system.hierarchy.load.__func__ is MemoryHierarchy.load
        system.hierarchy.check_invariants()


def _system():
    system = HMTXSystem(MachineConfig())
    system.thread(0, core=0)
    return system


def _is_raw(method, cls, name):
    return getattr(method, "__func__", None) is getattr(cls, name)


class TestDetachOrder:
    """Regression: detaching the *inner* (first-attached) subscriber must
    not restore the raw method over the survivor's wrapper.  With one
    wrapper per (object, method) rebuilt from the subscriber list, any
    detach order keeps the survivor recording, and the class function
    comes back only after the last detach."""

    def test_inner_protocol_tracer_detached_first(self):
        system = _system()
        inner = ProtocolTracer.attach(system.hierarchy)
        outer = ProtocolTracer.attach(system.hierarchy)
        system.store(0, 0x40, 1)

        inner.detach()
        assert not _is_raw(system.hierarchy._access, MemoryHierarchy,
                           "_access")
        system.store(0, 0x80, 2)              # outer must still see this
        assert len(outer.of_kind("store")) == 2
        assert len(inner.of_kind("store")) == 1

        outer.detach()
        system.store(0, 0xC0, 3)
        assert len(outer.of_kind("store")) == 2
        for name in HIERARCHY_METHODS:
            assert _is_raw(getattr(system.hierarchy, name),
                           MemoryHierarchy, name), name
        system.hierarchy.check_invariants()

    def test_inner_backend_tracer_detached_first(self):
        system = _system()
        inner = BackendTracer.attach(system)
        outer = BackendTracer.attach(system)
        system.store(0, 0x40, 1)

        inner.detach()
        assert not _is_raw(system.store, HMTXSystem, "store")
        system.store(0, 0x80, 2)
        assert len(outer.of_kind("store")) == 2
        assert len(inner.of_kind("store")) == 1

        outer.detach()
        system.store(0, 0xC0, 3)
        assert len(outer.of_kind("store")) == 2
        assert _is_raw(system.store, HMTXSystem, "store")

    @pytest.mark.parametrize("inner_name", ["session", "ring"])
    def test_session_and_trace_ring_on_one_system(self, inner_name):
        system = _system()
        session = ObsSession()
        outer_name = "ring" if inner_name == "session" else "session"

        def attach(name):
            if name == "session":
                session.attach_system(system)
                return session
            return BackendTracer.attach(system)

        inner, outer = attach(inner_name), attach(outer_name)
        ring = inner if inner_name == "ring" else outer

        def stores():
            return {"session": sum(session.line_access_counts.values()),
                    "ring": len(ring.of_kind("store"))}

        system.store(0, 0x40, 1)
        assert stores() == {"session": 1, "ring": 1}

        inner.detach()
        assert not _is_raw(system.store, HMTXSystem, "store")
        system.store(0, 0x80, 2)
        assert stores() == {inner_name: 1, outer_name: 2}

        outer.detach()
        system.store(0, 0xC0, 3)
        assert stores() == {inner_name: 1, outer_name: 2}
        assert _is_raw(system.store, HMTXSystem, "store")
