"""Abort taxonomy: classification and end-to-end cause threading.

The five causes must each be stamped at its source and surface both on
the raised :class:`~repro.errors.MisspeculationError` and in the system's
``stats.contention`` breakdown.
"""

import pickle

import pytest

from repro.core import HMTXSystem, MachineConfig
from repro.errors import MisspeculationError, SpeculativeOverflowError
from repro.txctl import AbortCause, classify, event_from_exception

ADDR = 0x4000


@pytest.fixture
def system():
    sys = HMTXSystem(MachineConfig(num_cores=4))
    for tid in range(4):
        sys.thread(tid, core=tid)
    return sys


class TestTaxonomy:
    def test_capacity_is_the_only_non_transient_cause(self):
        for cause in AbortCause:
            assert cause.transient == (cause is not AbortCause.CAPACITY_OVERFLOW)

    def test_classify_prefers_stamped_cause(self):
        exc = MisspeculationError("x", cause=AbortCause.INTERRUPT)
        assert classify(exc) is AbortCause.INTERRUPT

    @pytest.mark.parametrize("error", [MisspeculationError,
                                       SpeculativeOverflowError])
    def test_unstamped_construction_is_a_type_error(self, error):
        # The cause is required: there is no type-based default to fall
        # back on, so an unstamped raise site fails where it is written.
        with pytest.raises(TypeError):
            error("unstamped", vid=3)

    @pytest.mark.parametrize("error", [MisspeculationError,
                                       SpeculativeOverflowError])
    def test_stamped_error_survives_pickling(self, error):
        exc = error("boom", vid=3, addr=0x40,
                    cause=AbortCause.CAPACITY_OVERFLOW)
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is error
        assert (again.reason, again.vid, again.addr, again.cause) \
            == ("boom", 3, 0x40, AbortCause.CAPACITY_OVERFLOW)

    def test_event_from_exception_carries_context(self):
        exc = MisspeculationError("boom", vid=3, addr=0x1234,
                                  cause=AbortCause.CONFLICT)
        event = event_from_exception(exc, committed=7)
        assert event.vid == 3
        assert event.addr == 0x1234
        assert event.cause is AbortCause.CONFLICT
        assert event.committed == 7


class TestEndToEndCauses:
    def test_conflict(self, system):
        v1, v2 = system.allocate_vid(), system.allocate_vid()
        system.begin_mtx(0, v2)
        system.load(0, ADDR)
        system.begin_mtx(1, v1)
        with pytest.raises(MisspeculationError) as info:
            system.store(1, ADDR, 1)
        assert classify(info.value) is AbortCause.CONFLICT
        assert system.stats.contention.by_cause == {"conflict": 1}

    def test_capacity_overflow(self):
        sys = HMTXSystem(MachineConfig(num_cores=2, l1_size=1024, l1_assoc=2,
                                       l2_size=4096, l2_assoc=4))
        sys.thread(0, core=0)
        sys.begin_mtx(0, sys.allocate_vid())
        with pytest.raises(MisspeculationError) as info:
            for i in range(400):
                sys.store(0, 0x40_0000 + i * 64, i)
        assert classify(info.value) is AbortCause.CAPACITY_OVERFLOW
        assert sys.stats.contention.cause_count(
            AbortCause.CAPACITY_OVERFLOW) == 1

    def test_wrong_path(self):
        sys = HMTXSystem(MachineConfig(num_cores=2), sla_enabled=False)
        sys.thread(0, core=0)
        sys.thread(1, core=1)
        v1, v2 = sys.allocate_vid(), sys.allocate_vid()
        sys.begin_mtx(1, v2)
        sys.wrong_path_load(1, ADDR)  # marks the line (no SLAs)
        sys.begin_mtx(0, v1)
        with pytest.raises(MisspeculationError) as info:
            sys.store(0, ADDR, 1)
        assert classify(info.value) is AbortCause.WRONG_PATH
        assert sys.stats.false_aborts_triggered == 1
        assert sys.stats.contention.by_cause == {"wrong-path": 1}

    def test_interrupt(self, system):
        system.begin_mtx(0, system.allocate_vid())
        system.store(0, ADDR, 9)
        with pytest.raises(MisspeculationError) as info:
            system.kernel_store(1, ADDR, 1)
        assert classify(info.value) is AbortCause.INTERRUPT
        assert system.stats.contention.by_cause == {"interrupt": 1}

    def test_explicit(self, system):
        vid = system.allocate_vid()
        system.begin_mtx(0, vid)
        with pytest.raises(MisspeculationError) as info:
            system.abort_mtx(0, vid)
        assert classify(info.value) is AbortCause.EXPLICIT
        assert system.stats.contention.by_cause == {"explicit": 1}

    def test_load_path_capacity_abort_flushes_state(self):
        """A capacity abort raised on the *load* path must flush the
        speculative state exactly like the store path does."""
        sys = HMTXSystem(MachineConfig(num_cores=2, l1_size=1024, l1_assoc=2,
                                       l2_size=4096, l2_assoc=4))
        sys.thread(0, core=0)
        sys.begin_mtx(0, sys.allocate_vid())
        with pytest.raises(MisspeculationError):
            for i in range(400):
                sys.store(0, 0x40_0000 + i * 64, i)
                sys.load(0, 0x50_0000 + i * 64)
        assert not sys.active_vids
        assert sys.contexts[0].vid == 0
