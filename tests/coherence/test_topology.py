"""Unit tests for the topology-aware machine model.

Covers the :mod:`repro.topology` spec itself (shape math, placement,
latency formulas), its projection through :class:`MachineConfig` into the
sliced-LLC hierarchy and per-socket directory banks, the PR's satellite
fixes (the directory-knob round-trip), the extended structural
invariants, and the ``modelcheck-structure`` mutation harness.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.modelcheck import check_topology_structure
from repro.coherence.directory import DirectoryConfig, DirectoryHierarchy
from repro.coherence.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.core.config import MachineConfig
from repro.topology import (
    TOPOLOGY_PRESETS,
    TopologySpec,
    place_core,
    placement_map,
    preset_names,
    topology_preset,
)

TWO_SOCKET = TopologySpec(sockets=2, cores_per_socket=4)


def two_socket_config(**overrides) -> DirectoryConfig:
    kwargs = dict(num_cores=8, topology=TWO_SOCKET)
    kwargs.update(overrides)
    return DirectoryConfig(**kwargs)


# ----------------------------------------------------------------------
# TopologySpec shape and validation
# ----------------------------------------------------------------------

class TestTopologySpec:
    def test_shape_and_flatness(self):
        spec = TopologySpec(sockets=4, cores_per_socket=64)
        assert spec.num_cores == 256
        assert not spec.flat
        assert TopologySpec(sockets=1, cores_per_socket=4).flat

    @pytest.mark.parametrize("kwargs", [
        dict(sockets=0),
        dict(cores_per_socket=0),
        dict(intra_hop_latency=-1),
        dict(home_interleave="page"),
        dict(llc_slice_size=0),
    ])
    def test_validation_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ValueError):
            TopologySpec(**kwargs)

    def test_socket_core_mapping_is_socket_major(self):
        spec = TopologySpec(sockets=2, cores_per_socket=32)
        assert spec.socket_of_core(0) == 0
        assert spec.socket_of_core(31) == 0
        assert spec.socket_of_core(32) == 1
        assert spec.cores_of_socket(1) == range(32, 64)

    def test_home_socket_line_interleaves(self):
        spec = TopologySpec(sockets=4, cores_per_socket=4)
        homes = [spec.home_socket(line * 64, 64) for line in range(8)]
        assert homes == [0, 1, 2, 3, 0, 1, 2, 3]
        # Same line, any byte: same home.
        assert spec.home_socket(64 + 63, 64) == spec.home_socket(64, 64)

    def test_flat_spec_homes_everything_at_zero(self):
        spec = TopologySpec(sockets=1, cores_per_socket=8)
        assert all(spec.home_socket(a, 64) == 0 for a in range(0, 2048, 64))

    def test_hop_latency_intra_vs_cross(self):
        spec = TWO_SOCKET
        assert spec.hop_latency(0, 0) == spec.intra_hop_latency
        assert spec.hop_latency(0, 1) == spec.cross_hop_latency
        assert spec.hop_latency(1, 0) == spec.hop_latency(0, 1)

    def test_multicast_latency_flat_has_no_cross_term(self):
        flat = TopologySpec(sockets=1, cores_per_socket=4)
        assert flat.multicast_latency(25) == \
            25 + math.ceil(math.log2(5)) * flat.intra_hop_latency

    def test_multicast_and_reset_costs_grow_with_sockets(self):
        two = TopologySpec(sockets=2, cores_per_socket=32)
        four = TopologySpec(sockets=4, cores_per_socket=32)
        assert four.multicast_latency(25) > two.multicast_latency(25)
        assert four.reset_scrub_latency(25, 40) > \
            two.reset_scrub_latency(25, 40)
        # The scrub barrier is linear in sockets: one slice walk each.
        assert (four.reset_scrub_latency(25, 40)
                - four.multicast_latency(25)) - \
               (two.reset_scrub_latency(25, 40)
                - two.multicast_latency(25)) == 2 * 40

    def test_reset_scrub_flat_is_base(self):
        assert TopologySpec(sockets=1, cores_per_socket=4) \
            .reset_scrub_latency(25, 40) == 25

    def test_presets(self):
        assert set(preset_names()) == set(TOPOLOGY_PRESETS)
        assert topology_preset("table2").num_cores == 4
        assert topology_preset("table2").flat
        assert topology_preset("2s64c").num_cores == 64
        assert topology_preset("4s128c").sockets == 4
        assert topology_preset("4s256c").num_cores == 256
        with pytest.raises(KeyError):
            topology_preset("8s1024c")


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------

class TestPlacement:
    def test_pack_is_the_historical_mapping(self):
        for index in range(20):
            assert place_core(index, 8, TWO_SOCKET, "pack") == index % 8
            assert place_core(index, 8, None, "spread") == index % 8

    def test_spread_round_robins_sockets_first(self):
        assert placement_map(8, 8, TWO_SOCKET, "spread") == \
            [0, 4, 1, 5, 2, 6, 3, 7]

    def test_spread_is_a_permutation(self):
        spec = TopologySpec(sockets=4, cores_per_socket=8)
        assert sorted(placement_map(32, 32, spec, "spread")) == list(range(32))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            place_core(0, 8, TWO_SOCKET, "hash")


# ----------------------------------------------------------------------
# MachineConfig projection (incl. satellite S1: directory-knob round-trip)
# ----------------------------------------------------------------------

class TestMachineConfig:
    def test_topology_core_count_must_match(self):
        with pytest.raises(ValueError):
            MachineConfig(num_cores=4, topology=TWO_SOCKET)

    def test_placement_policy_validated(self):
        with pytest.raises(ValueError):
            MachineConfig(placement="random")

    def test_directory_knobs_round_trip(self):
        # Regression (S1): hierarchy_config() used to silently drop the
        # directory knobs and hand DirectoryConfig its defaults.
        machine = MachineConfig(coherence="directory", directory_banks=16,
                                directory_latency=21, bank_occupancy=7,
                                link_latency=13)
        hier = machine.hierarchy_config()
        assert isinstance(hier, DirectoryConfig)
        assert hier.directory_banks == 16
        assert hier.directory_latency == 21
        assert hier.bank_occupancy == 7
        assert hier.link_latency == 13

    def test_for_topology_flat_preset_is_the_default_machine(self):
        machine = MachineConfig.for_topology("table2")
        assert machine.topology is None
        assert machine.coherence == "snoopy"
        assert machine.num_cores == MachineConfig().num_cores

    def test_for_topology_multi_socket_defaults_to_directory(self):
        machine = MachineConfig.for_topology("2s64c")
        assert machine.num_cores == 64
        assert machine.coherence == "directory"
        assert machine.topology is topology_preset("2s64c")

    def test_socket_of_core(self):
        flat = MachineConfig()
        assert flat.socket_of_core(3) == 0
        machine = MachineConfig.for_topology(TWO_SOCKET)
        assert machine.socket_of_core(5) == 1


# ----------------------------------------------------------------------
# Sliced hierarchy structure and NUMA timing
# ----------------------------------------------------------------------

class TestSlicedHierarchy:
    def test_flat_machine_single_slice_named_l2(self):
        hier = MemoryHierarchy(HierarchyConfig())
        assert [c.name for c in hier.llc_slices] == ["L2"]
        assert not hasattr(hier, "l2")

    def test_one_slice_per_socket(self):
        hier = DirectoryHierarchy(two_socket_config())
        assert [c.name for c in hier.llc_slices] == ["LLC[0]", "LLC[1]"]
        assert not hasattr(hier, "l2")

    def test_slice_geometry_comes_from_the_spec(self):
        spec = TopologySpec(sockets=2, cores_per_socket=4,
                            llc_slice_size=1 << 20, llc_slice_assoc=8)
        hier = DirectoryHierarchy(DirectoryConfig(num_cores=8, topology=spec))
        for llc in hier.llc_slices:
            assert llc.size == 1 << 20
            assert llc.assoc == 8

    def test_commit_and_reset_costs_match_the_spec_formulas(self):
        config = two_socket_config()
        hier = DirectoryHierarchy(config)
        topo = config.topology
        assert hier.commit(1) == topo.multicast_latency(
            config.broadcast_latency)
        assert hier.vid_reset() == topo.reset_scrub_latency(
            config.broadcast_latency, topo.llc_slice_latency)

    def test_per_socket_bank_arrays(self):
        hier = DirectoryHierarchy(two_socket_config(directory_banks=4))
        assert len(hier._bank_free) == 8
        line_size = hier.config.line_size
        # Line 0 homes at socket 0 bank 0; line 1 at socket 1 bank 1.
        assert hier._bank_of(0) == 0
        assert hier._bank_of(line_size) == 4 + 1

    def test_links_charge_numa_hops(self):
        hier = DirectoryHierarchy(two_socket_config())
        topo = hier.config.topology
        assert hier._link(0, 0) == topo.intra_hop_latency
        assert hier._link(0, 1) == topo.cross_hop_latency
        flat = DirectoryHierarchy(DirectoryConfig(num_cores=4))
        assert flat._link(0, 0) == flat.dconfig.link_latency

    def test_victims_route_to_the_home_slice(self):
        # Tiny L1s: the second distinct line mapping to the same set
        # evicts the first, which must land in its *home* slice.
        config = two_socket_config(l1_size=2 * 64, l1_assoc=1)
        hier = DirectoryHierarchy(config)
        line = hier.config.line_size
        sets = config.l1_size // (config.l1_assoc * line)
        a, b = 0, sets * line  # same L1 set, homes 0 and (sets % 2)
        hier.store(0, a, 1, value=7)
        hier.store(0, b, 1, value=8)
        hier.check_invariants()
        hier.check_directory_invariant()

    def test_invariant_catches_foreign_slice_resident(self):
        from repro.coherence.states import CODE_SHARED

        hier = DirectoryHierarchy(two_socket_config())
        line = hier.config.line_size
        # Line at `line` homes at socket 1; force a copy into slice 0.
        hier._install(hier.llc_slices[0], line, CODE_SHARED,
                      hier.memory.read_line(line), 0, 0)
        with pytest.raises(AssertionError):
            hier.check_invariants()
        with pytest.raises(AssertionError):
            hier.check_directory_invariant()

    def test_multi_socket_run_passes_invariants(self):
        from repro.runtime.paradigms import run_ps_dswp
        from repro.workloads.linkedlist import LinkedListWorkload

        machine = MachineConfig.for_topology(TWO_SOCKET)
        result = run_ps_dswp(LinkedListWorkload(nodes=16, work_cycles=50),
                             config=machine)
        hier = result.system.hierarchy
        hier.check_invariants()
        hier.check_directory_invariant()
        assert result.run.ops_executed > 0


# ----------------------------------------------------------------------
# modelcheck-structure: the injectable harness and its mutants (S2)
# ----------------------------------------------------------------------

def _small_two_socket() -> DirectoryConfig:
    return two_socket_config(l1_size=16 * 64, l1_assoc=2)


class TestStructurePass:
    def test_real_machine_is_clean(self):
        report = check_topology_structure()
        assert report.ok
        assert report.coverage["violations"] == 0
        assert report.coverage["sockets"] == 2
        assert report.coverage["ops_executed"] > 0

    def test_broken_home_routing_yields_mc009(self):
        class BrokenHome(DirectoryHierarchy):
            def _home_llc(self, addr):
                good = super()._home_llc(addr)
                index = self.llc_slices.index(good)
                return self.llc_slices[(index + 1) % len(self.llc_slices)]

        report = check_topology_structure(
            hierarchy_factory=lambda: BrokenHome(_small_two_socket()))
        assert not report.ok
        assert any(f.rule == "MC009" for f in report.findings)

    def test_dropped_sharer_entry_yields_mc010(self):
        class BrokenSharers(DirectoryHierarchy):
            def _install(self, cache, base, code, data, mod_vid, high_vid):
                slot = super()._install(cache, base, code, data, mod_vid,
                                        high_vid)
                if cache.name == "L1[3]":
                    self._sharers.get(base, set()).discard(cache.name)
                return slot

        report = check_topology_structure(
            hierarchy_factory=lambda: BrokenSharers(_small_two_socket()))
        assert not report.ok
        assert any(f.rule == "MC010" for f in report.findings)
