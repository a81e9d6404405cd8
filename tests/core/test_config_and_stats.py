"""Tests for MachineConfig (Table 2), ThreadContext, and SystemStats."""

import pytest

from repro.core import (HMTXSystem, MachineConfig, SystemStats, ThreadContext,
                        table2_config)
from repro.core.config import small_test_config
from repro.errors import MisspeculationError
from repro.smtx.system import SMTXSystem


class TestTable2Config:
    """The defaults must be the paper's Table 2 machine."""

    def test_cores_and_clock(self):
        cfg = table2_config()
        assert cfg.num_cores == 4
        assert cfg.clock_ghz == 2.0

    def test_l1(self):
        cfg = table2_config()
        assert cfg.l1_size == 64 * 1024
        assert cfg.l1_assoc == 8
        assert cfg.l1_latency == 2

    def test_l2(self):
        cfg = table2_config()
        assert cfg.l2_size == 32 * 1024 * 1024
        assert cfg.l2_assoc == 32
        assert cfg.l2_latency == 40

    def test_line_and_memory(self):
        cfg = table2_config()
        assert cfg.line_size == 64
        assert cfg.memory_latency == 200
        assert cfg.memory_size == 1 << 30

    def test_vid_bits_default_six(self):
        assert table2_config().vid_bits == 6

    def test_hierarchy_projection(self):
        config = table2_config()
        h = config.build_hierarchy()
        assert h.config is config
        assert len(h.l1s) == 4
        assert h.llc_slices[0].size == 32 * 1024 * 1024
        assert h.l1s[0].comparator.bits == 6

    def test_cycles_to_seconds(self):
        cfg = table2_config()
        assert cfg.cycles_to_seconds(2_000_000_000) == pytest.approx(1.0)

    def test_small_test_config(self):
        cfg = small_test_config()
        assert cfg.l1_size < table2_config().l1_size


class TestThreadContext:
    def test_output_buffering_per_vid(self):
        ctx = ThreadContext(tid=0, core=0)
        ctx.vid = 3
        ctx.buffer_output("a")
        ctx.vid = 4
        ctx.buffer_output("b")
        assert ctx.release_output(3) == ["a"]
        assert ctx.release_output(3) == []
        assert ctx.pending_output_count() == 1

    def test_discard_counts(self):
        ctx = ThreadContext(tid=0, core=0)
        ctx.vid = 1
        ctx.buffer_output("x")
        ctx.buffer_output("y")
        assert ctx.discard_output() == 2
        assert ctx.pending_output_count() == 0


def _machine(backend):
    """A one-thread machine of ``backend`` (thread 0 on core 0)."""
    system = backend()
    system.thread(0, core=0)
    return system


def _open_tx(system):
    vid = system.allocate_vid()
    system.begin_mtx(0, vid)
    return vid


#: The set-size accounting is inlined in each backend's load and store,
#: so it is checked through both.
BACKENDS = pytest.mark.parametrize("backend", [HMTXSystem, SMTXSystem])


class TestSystemStats:
    @BACKENDS
    def test_read_write_sets_at_line_granularity(self, backend):
        system = _machine(backend)
        vid = _open_tx(system)
        system.load(0, 0x100)
        system.load(0, 0x108)  # same line
        system.store(0, 0x140, 1)
        system.commit_mtx(0, vid)
        (record,) = system.stats.transactions
        assert record.read_set_bytes == 64
        assert record.write_set_bytes == 64
        assert record.combined_set_bytes == 128
        assert record.spec_accesses == 3
        # Only HMTX's first read of the line sends a retired-load SLA.
        assert record.slas_sent == (backend is HMTXSystem)

    @BACKENDS
    def test_combined_set_deduplicates(self, backend):
        system = _machine(backend)
        vid = _open_tx(system)
        system.load(0, 0x100)
        system.store(0, 0x108, 1)  # same line as the load
        system.commit_mtx(0, vid)
        assert system.stats.transactions[0].combined_set_bytes == 64

    @BACKENDS
    def test_averages(self, backend):
        system = _machine(backend)
        for lines in (1, 3):
            vid = _open_tx(system)
            for i in range(lines):
                system.load(0, i * 64)
            system.commit_mtx(0, vid)
        stats = system.stats
        assert stats.avg_read_set_kb == pytest.approx((64 + 192) / 2 / 1024)
        assert stats.avg_spec_accesses_per_tx == pytest.approx(2.0)

    def test_sla_fraction(self):
        system = _machine(HMTXSystem)
        _open_tx(system)
        for addr in (0, 8, 16):  # one line: only the first load marks it
            system.load(0, addr)
        assert system.stats.sla_fraction_of_spec_loads == pytest.approx(1 / 3)

    @BACKENDS
    def test_abort_clears_open_transactions(self, backend):
        system = _machine(backend)
        vid = _open_tx(system)
        system.load(0, 0)
        with pytest.raises(MisspeculationError):
            system.abort_mtx(0, vid)
        assert system.stats.aborted == 1
        assert system.stats.record_commit(vid) is None  # no open record

    def test_empty_stats_are_zero(self):
        stats = SystemStats()
        assert stats.avg_spec_accesses_per_tx == 0.0
        assert stats.avg_combined_set_kb == 0.0
        assert stats.sla_fraction_of_spec_loads == 0.0
        assert stats.avoided_aborts_per_tx == 0.0
