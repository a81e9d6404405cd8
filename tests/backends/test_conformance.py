"""Backend conformance suite: every registered backend honours TMBackend.

``runtime_checkable`` protocols only verify method *presence*, so this
suite holds each backend to the full contract the paradigm executors
rely on:

* every name in ``PROTOCOL_METHODS`` exists with the same parameter
  names and defaults as the protocol (annotations are free to differ —
  HMTX types ``init_mtx``'s handler as ``Callable``, SMTX as ``Any``);
* every name in ``PROTOCOL_ATTRIBUTES`` exists after construction, with
  ``stats`` a real :class:`SystemStats` (same field set everywhere);
* the behavioural core — begin/store/commit updates ``last_committed``
  and buffers output until commit; ``abort_mtx`` raises
  :class:`MisspeculationError` stamped ``AbortCause.EXPLICIT``, lands in
  the txctl taxonomy under its VID and rewinds VID allocation; misuse
  (out-of-order or unknown commits, re-beginning a committed VID) is a
  :class:`TransactionUsageError` — is identical across backends;
* every backend actually runs a workload end-to-end through the
  paradigm executors (``run_workload(backend=...)``) and preserves
  sequential semantics.
"""

import dataclasses
import inspect

import pytest

from repro.backends import (
    PROTOCOL_ATTRIBUTES,
    PROTOCOL_METHODS,
    TMBackend,
    backend_names,
    get_backend,
)
from repro.core.config import MachineConfig
from repro.core.stats import SystemStats
from repro.errors import MisspeculationError, TransactionUsageError
from repro.runtime.paradigms import run_workload
from repro.smtx.system import SMTXSystem
from repro.txctl.causes import AbortCause
from repro.workloads import make_benchmark

BACKENDS = sorted(backend_names())

ADDR = 0x1000


def fresh(name):
    return get_backend(name)(config=MachineConfig())


@pytest.fixture(params=BACKENDS)
def backend(request):
    return fresh(request.param)


class TestRegistry:
    def test_known_backends_registered(self):
        assert {"hmtx", "smtx", "oracle"} <= set(BACKENDS)

    def test_unknown_backend_is_loud(self):
        with pytest.raises(KeyError, match="hmtx"):
            get_backend("tsx")

    def test_factories_accept_config(self, backend):
        assert backend.config.line_size == MachineConfig().line_size


class TestSurface:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, TMBackend)

    def test_attributes_present(self, backend):
        for attr in PROTOCOL_ATTRIBUTES:
            assert hasattr(backend, attr), attr

    def test_method_signatures_match_protocol(self, backend):
        """Same parameter names and defaults as the protocol stubs.

        Annotations are excluded on purpose: the contract is structural
        (an executor passes positionally or by these names), not
        nominal.
        """
        for name in PROTOCOL_METHODS:
            spec = inspect.signature(getattr(TMBackend, name))
            impl = inspect.signature(getattr(backend, name))
            spec_params = [(p.name, p.default, p.kind)
                           for p in spec.parameters.values()
                           if p.name != "self"]
            impl_params = [(p.name, p.default, p.kind)
                           for p in impl.parameters.values()]
            assert impl_params == spec_params, \
                f"{type(backend).__name__}.{name}: {impl_params} != {spec_params}"

    def test_stats_shape_is_shared(self, backend):
        assert isinstance(backend.stats, SystemStats)
        assert {f.name for f in dataclasses.fields(backend.stats)} == \
            {f.name for f in dataclasses.fields(SystemStats)}


class TestBehaviour:
    def test_commit_discipline(self, backend):
        backend.thread(0, core=0)
        vid = backend.allocate_vid()
        assert vid == 1
        backend.begin_mtx(0, vid)
        backend.store(0, ADDR, 42)
        backend.output(0, "buffered")
        assert backend.committed_output == []
        backend.commit_mtx(0, vid)
        assert backend.last_committed == vid
        assert backend.stats.committed == 1
        assert backend.committed_output == ["buffered"]
        assert backend.load(0, ADDR).value == 42

    def test_explicit_abort_taxonomy(self, backend):
        """abort_mtx: MisspeculationError + EXPLICIT in the txctl taxonomy."""
        backend.thread(0, core=0)
        vid = backend.allocate_vid()
        backend.begin_mtx(0, vid)
        backend.store(0, ADDR, 7)
        backend.output(0, "doomed")
        with pytest.raises(MisspeculationError) as err:
            backend.abort_mtx(0, vid)
        assert err.value.cause is AbortCause.EXPLICIT
        assert backend.stats.aborted == 1
        assert backend.stats.explicit_aborts == 1
        assert backend.stats.contention.by_cause.get("explicit") == 1
        # Speculative state and buffered output are gone.
        assert backend.committed_output == []
        assert backend.last_committed == 0

    def test_out_of_order_commit_is_a_usage_error(self, backend):
        backend.thread(0, core=0)
        backend.allocate_vid()
        second = backend.allocate_vid()
        backend.begin_mtx(0, second)
        with pytest.raises(TransactionUsageError, match="out of order"):
            backend.commit_mtx(0, second)

    def test_commit_of_unknown_vid_is_a_usage_error(self, backend):
        backend.thread(0, core=0)
        with pytest.raises(TransactionUsageError, match="unknown VID"):
            backend.commit_mtx(0, 1)
        assert backend.last_committed == 0

    def test_begin_of_committed_vid_is_a_usage_error(self, backend):
        backend.thread(0, core=0)
        vid = backend.allocate_vid()
        backend.begin_mtx(0, vid)
        backend.commit_mtx(0, vid)
        with pytest.raises(TransactionUsageError, match="committed"):
            backend.begin_mtx(0, vid)

    def test_abort_records_its_vid_and_rewinds_allocation(self, backend):
        backend.thread(0, core=0)
        first = backend.allocate_vid()
        backend.begin_mtx(0, first)
        backend.commit_mtx(0, first)
        backend.allocate_vid()
        doomed = backend.allocate_vid()
        backend.begin_mtx(0, doomed)
        with pytest.raises(MisspeculationError):
            backend.abort_mtx(0, doomed)
        assert backend.stats.contention.by_vid == {doomed: 1}
        assert backend.active_vids == set()
        assert backend.contexts[0].vid == 0
        assert backend.allocate_vid() == backend.last_committed + 1

    @pytest.mark.parametrize("name", ["smtx", "oracle"])
    def test_unbounded_backends_have_no_vid_reset(self, name):
        backend = fresh(name)
        assert not backend.ready_for_vid_reset()
        with pytest.raises(TransactionUsageError, match="unbounded"):
            backend.vid_reset()

    @pytest.mark.parametrize("name", ["smtx", "oracle"])
    def test_software_backends_label_every_access(self, name):
        backend = fresh(name)
        backend.thread(0, core=0)
        results = [backend.load(0, ADDR), backend.store(0, ADDR, 1),
                   backend.kernel_load(0, ADDR),
                   backend.kernel_store(0, ADDR, 2)]
        assert {result.served_by for result in results} == {name}

    def test_runs_a_workload_end_to_end(self):
        """Every backend drives the paradigm executors unchanged."""
        for name in BACKENDS:
            workload = make_benchmark("ispell", 0.2)
            result = run_workload(workload, backend=name)
            system = result.system
            assert workload.observed_result(system) == \
                workload.expected_result(system), name
            assert system.stats.committed > 0, name


class TestSmtxConflictCause:
    def test_validation_failure_stamps_conflict(self):
        """A real SMTX read-validation failure carries AbortCause.CONFLICT."""
        system = SMTXSystem(config=MachineConfig())
        system.thread(0, core=0)
        system.thread(1, core=1)
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        system.load(0, ADDR)              # logged read of committed value 0
        system.contexts[1].vid = 0
        system.kernel_store(1, ADDR, 99)  # committed state changes under us
        with pytest.raises(MisspeculationError) as err:
            system.commit_mtx(0, vid)
        assert err.value.cause is AbortCause.CONFLICT
        assert system.stats.contention.by_cause.get("conflict") == 1
        assert system.stats.aborted == 1
        assert system.stats.explicit_aborts == 0
