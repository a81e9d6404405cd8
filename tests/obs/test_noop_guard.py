"""S6: the instrumentation-off regression guard.

Three guarantees, in increasing strength:

1. The hook point defaults to ``None`` — no session, no wrapping, the
   simulator runs its unmodified methods (the fast-path goldens in
   ``tests/integration/test_fastpath_golden.py`` then pin bit-identical
   behaviour end to end).
2. Activating and detaching a session leaves no residue: a run *after*
   an observed run is bit-identical to a run that never saw one.
3. Observation itself is behaviour-free: the snapshot of an *observed*
   run equals the snapshot of an unobserved run, counter for counter —
   for every tap subscriber (the obs session, the race-check ring and
   the protocol tracer).
"""

from __future__ import annotations

import pytest

from repro.obs import hooks
from repro.obs.session import ObsSession
from repro.obs.tap import Tap
from repro.trace import BackendTracer, ProtocolTracer

from tests.integration.test_fastpath_golden import (
    _run_capacity_hog,
    _run_contended_list,
    _run_fig8_slice,
)


class TestHookDefault:
    def test_hook_point_defaults_to_none(self):
        assert hooks.active is None

    def test_deactivate_is_idempotent(self):
        hooks.deactivate()
        assert hooks.active is None


class TestNoResidue:
    def test_run_after_observed_run_is_bit_identical(self):
        baseline = _run_contended_list()
        session = ObsSession()
        with session.activate():
            _run_contended_list()
        session.detach()
        assert hooks.active is None
        again = _run_contended_list()
        assert again == baseline

    def test_exception_inside_activation_clears_hook(self):
        try:
            with ObsSession().activate():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert hooks.active is None


#: Every tap subscriber, and the stream proving it saw the run.
SUBSCRIBERS = {
    "obs-session": (ObsSession, lambda session: session.samples),
    "trace-ring": (BackendTracer, lambda ring: ring.events),
    "protocol-tracer": (ProtocolTracer, lambda tracer: tracer.events),
}


@pytest.mark.parametrize("subscriber", sorted(SUBSCRIBERS))
class TestObservationIsBehaviourFree:
    """An instrumented run must be simulation-identical: same makespan,
    same stats, same cache counters, same workload result."""

    def _observed(self, subscriber, run):
        make, recorded = SUBSCRIBERS[subscriber]
        observer = make()
        with Tap(observer).activate():
            snap = run()
        observer.detach()
        assert recorded(observer), "the subscriber observed nothing"
        return snap

    def test_contended_list_identical_under_observation(self, subscriber):
        assert self._observed(subscriber, _run_contended_list) \
            == _run_contended_list()

    def test_capacity_hog_identical_under_observation(self, subscriber):
        assert self._observed(subscriber, _run_capacity_hog) \
            == _run_capacity_hog()

    def test_fig8_benchmark_identical_under_observation(self, subscriber):
        run = lambda: _run_fig8_slice("ispell")  # noqa: E731
        assert self._observed(subscriber, run) == run()
