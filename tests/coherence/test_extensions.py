"""Tests for the section 8 extensions: unbounded sets and the directory."""

import pytest

from repro.coherence import (
    DirectoryConfig,
    DirectoryHierarchy,
    HierarchyConfig,
    MemoryHierarchy,
    OverflowVersionTable,
    State,
)
from repro.core import HMTXSystem, MachineConfig
from repro.errors import MisspeculationError, SpeculativeOverflowError
from repro.runtime.paradigms import run_workload
from repro.txctl.causes import AbortCause
from repro.workloads import LinkedListWorkload

TINY = dict(num_cores=2, l1_size=2 * 64, l1_assoc=2,
            l2_size=8 * 64, l2_assoc=4)


class TestUnboundedSets:
    def test_bounded_system_aborts_on_overflow(self):
        h = MemoryHierarchy(HierarchyConfig(**TINY))
        with pytest.raises(SpeculativeOverflowError):
            for i in range(200):
                h.store(0, 0x10000 + i * 64, 2, i)

    def test_unbounded_system_spills_instead(self):
        h = MemoryHierarchy(HierarchyConfig(unbounded_sets=True, **TINY))
        for i in range(200):
            h.store(0, 0x10000 + i * 64, 2, i)
        assert h.stats.spec_overflow_spills > 100
        assert h.overflow_table.resident_versions() > 100

    def test_spilled_versions_still_forward(self):
        """Uncommitted value forwarding must work through the table."""
        h = MemoryHierarchy(HierarchyConfig(unbounded_sets=True, **TINY))
        for i in range(120):
            h.store(0, 0x10000 + i * 64, 2, 1000 + i)
        for i in (0, 50, 119):
            assert h.load(1, 0x10000 + i * 64, 7)[0] == 1000 + i

    def test_spilled_versions_respect_windows(self):
        h = MemoryHierarchy(HierarchyConfig(unbounded_sets=True, **TINY))
        h.memory.write_word(0x10000, 5)
        for i in range(120):
            h.store(0, 0x10000 + i * 64, 3, 9)
        # An older VID must still see the pre-speculative value.
        assert h.load(1, 0x10000, 2)[0] == 5

    def test_spilled_versions_commit(self):
        h = MemoryHierarchy(HierarchyConfig(unbounded_sets=True, **TINY))
        for i in range(120):
            h.store(0, 0x10000 + i * 64, 1, i)
        h.commit(1)
        for i in (0, 64, 119):
            assert h.load(1, 0x10000 + i * 64, 0)[0] == i

    def test_spilled_versions_abort(self):
        h = MemoryHierarchy(HierarchyConfig(unbounded_sets=True, **TINY))
        h.memory.write_word(0x10000, 5)
        for i in range(120):
            h.store(0, 0x10000 + i * 64, 1, 99)
        h.abort()
        assert h.load(1, 0x10000, 0)[0] == 5

    def test_conflicts_still_detected_through_table(self):
        h = MemoryHierarchy(HierarchyConfig(unbounded_sets=True, **TINY))
        for i in range(120):
            h.load(0, 0x10000 + i * 64, 5)
        with pytest.raises(MisspeculationError):
            h.store(1, 0x10000, 2, 1)   # older store to a spilled read

    def test_table_retrieval_charges_memory_latency(self):
        h = MemoryHierarchy(HierarchyConfig(unbounded_sets=True, **TINY))
        for i in range(120):
            h.store(0, 0x10000 + i * 64, 1, i)
        _, latency = h.load(1, 0x10000, 1)
        assert latency > h.config.memory_latency

    def test_full_table_raises_capacity_overflow_for_its_victim(self):
        """The table's safety valve: a spill into a full table evicts its
        LRU pinned version, and that eviction is the overflow abort."""
        table = OverflowVersionTable(capacity=2)
        table.spill(State.SM.code, 0x1000, [1] * 8, 3, 4)
        table.spill(State.SO.code, 0x2000, [2] * 8, 5, 6)
        with pytest.raises(SpeculativeOverflowError) as info:
            table.spill(State.SE.code, 0x3000, [3] * 8, 7, 7)
        error = info.value
        assert error.cause is AbortCause.CAPACITY_OVERFLOW
        assert (error.addr, error.vid) == (0x1000, 3)
        assert "overflow table capacity exceeded evicting S-M(3,4)" \
            in str(error)
        assert table.spills == 3
        assert table.resident_versions() == 2

    def test_table_is_one_set_for_lines_of_every_llc_set(self):
        """Spilled versions of lines from every LLC set share the table's
        single set, and each refills with its own data."""
        h = MemoryHierarchy(HierarchyConfig(unbounded_sets=True, **TINY))
        lines = [0x10000 + i * 64 for i in range(40)]
        for i, addr in enumerate(lines):
            h.store(0, addr, 2, 500 + i)
        table = h.overflow_table
        llc = h.llc_slices[0]
        spilled = sorted(table._by_base)
        assert len(spilled) > 20
        assert {llc.set_index(addr) for addr in spilled} == \
            set(range(llc.num_sets))
        assert list(table._sets) == [0]
        assert sorted(table._store.addr[slot]
                      for slot in table._sets[0]) == spilled
        for i, addr in enumerate(lines):
            assert h.load(1, addr, 3)[0] == 500 + i
        assert table.refills >= len(spilled)
        h.check_invariants()

    def test_workload_runs_on_tiny_caches_with_unbounded_sets(self):
        config = MachineConfig(num_cores=4, l1_size=4 * 1024, l1_assoc=4,
                               l2_size=32 * 1024, l2_assoc=8,
                               unbounded_sets=True)
        workload = LinkedListWorkload(nodes=24)
        result = run_workload(workload, config, paradigm="PS-DSWP")
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)
        assert result.system.stats.aborted == 0


class TestDirectory:
    def fresh(self, **kw):
        return DirectoryHierarchy(DirectoryConfig(num_cores=4, **kw))

    def test_functionally_equivalent_to_snoopy(self):
        """Same protocol, different interconnect: identical outcomes."""
        snoopy = MemoryHierarchy(HierarchyConfig(num_cores=4))
        direct = self.fresh()
        ops = [("s", 0, 0x1000, 1, 11), ("s", 1, 0x1040, 2, 22),
               ("l", 2, 0x1000, 3, None), ("s", 2, 0x1000, 3, 33),
               ("l", 3, 0x1040, 4, None)]
        for h in (snoopy, direct):
            for kind, core, addr, vid, value in ops:
                if kind == "s":
                    h.store(core, addr, vid, value)
                else:
                    h.load(core, addr, vid)
            for vid in (1, 2, 3, 4):
                h.commit(vid)
        for addr in (0x1000, 0x1040):
            assert snoopy.load(0, addr, 0)[0] == direct.load(0, addr, 0)[0]

    def test_sharer_map_superset_invariant(self):
        h = self.fresh()
        h.store(0, 0x2000, 1, 1)
        h.load(1, 0x2000, 2)
        h.load(2, 0x2000, 3)
        h.check_directory_invariant()
        assert {"L1[0]", "L1[1]", "L1[2]"} <= h.sharers_of(0x2000)

    def test_stale_entries_cleaned_on_probe(self):
        h = self.fresh()
        h.load(0, 0x2000, 0)
        h.store(1, 0x2000, 0, 9)     # invalidates core 0's copy
        # Core 0 may linger in the map (lazy removal)...
        h.store(1, 0x2040, 0, 1)
        h.load(2, 0x2000, 0)         # probe sweeps stale entries
        h.check_directory_invariant()

    def test_misses_to_different_banks_overlap(self):
        h = self.fresh()
        lat0 = h.load(0, 0x8000, 0, now=0)[1]
        lat1 = h.load(1, 0x8040, 0, now=0)[1]   # different bank
        assert abs(lat0 - lat1) <= h.dconfig.bank_occupancy

    def test_same_bank_misses_serialise(self):
        h = self.fresh(directory_banks=1)
        h.load(0, 0x8000, 0, now=0)
        lat1 = h.load(1, 0x9000, 0, now=0)[1]
        assert h.dir_stats.bank_wait_cycles > 0
        assert lat1 > h.dconfig.directory_latency + h.config.memory_latency

    def test_probe_count_tracks_sharers_not_cores(self):
        h = DirectoryHierarchy(DirectoryConfig(num_cores=16))
        h.store(0, 0x2000, 1, 1)
        before = h.dir_stats.probes_sent
        h.load(1, 0x2000, 1)
        # Only the single recorded sharer is probed, not all 15 peers.
        assert h.dir_stats.probes_sent - before <= 2

    def test_conflict_detection_unchanged(self):
        h = self.fresh()
        h.load(0, 0x2000, 5)
        with pytest.raises(MisspeculationError):
            h.store(1, 0x2000, 2, 1)

    def test_machine_config_wiring(self):
        system = HMTXSystem(MachineConfig(num_cores=4, coherence="directory"))
        assert isinstance(system.hierarchy, DirectoryHierarchy)

    def test_unknown_coherence_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(coherence="telepathy").hierarchy_config()

    def test_workload_correct_on_directory(self):
        config = MachineConfig(num_cores=4, coherence="directory")
        workload = LinkedListWorkload(nodes=32)
        result = run_workload(workload, config, paradigm="PS-DSWP")
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)
        assert result.system.stats.aborted == 0
        result.system.hierarchy.check_directory_invariant()

    def test_directory_scales_better_than_snoopy(self):
        """The section 8 motivation, measured at 16 cores."""
        speedups = {}
        for coherence in ("snoopy", "directory"):
            seq = run_workload(LinkedListWorkload(nodes=48, work_cycles=700),
                               paradigm="Sequential")
            workload = LinkedListWorkload(nodes=48, work_cycles=700)
            par = run_workload(
                workload, MachineConfig(num_cores=16, coherence=coherence),
                paradigm="PS-DSWP", stage2_workers=14)
            speedups[coherence] = seq.cycles / par.cycles
        assert speedups["directory"] > speedups["snoopy"]
