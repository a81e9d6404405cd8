"""Machine configuration — the paper's Table 2.

=====================  ==============================================
Feature                Parameter
=====================  ==============================================
Architecture           Alpha 21264 (modelled abstractly)
Clock speed            2.0 GHz
L1 I and D caches      64 KB, 8-way set associative, 2-cycle latency
Shared L2 cache        32 MB, 32-way set associative, 40-cycle latency
Cache line size        64 B
Base coherence         MOESI
Memory                 1 GB, 200-cycle latency
=====================  ==============================================

The default :class:`MachineConfig` reproduces this table; experiments vary
``num_cores`` and ``vid_bits`` for the ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..coherence.directory import DirectoryConfig, DirectoryHierarchy
from ..coherence.hierarchy import HierarchyConfig, MemoryHierarchy
from ..cpu.isa import OpCosts
from ..topology import PLACEMENT_POLICIES, TopologySpec, topology_preset


@dataclass
class MachineConfig:
    """Full simulated-machine configuration (Table 2 defaults)."""

    num_cores: int = 4
    clock_ghz: float = 2.0
    l1_size: int = 64 * 1024
    l1_assoc: int = 8
    l1_latency: int = 2
    l2_size: int = 32 * 1024 * 1024
    l2_assoc: int = 32
    l2_latency: int = 40
    line_size: int = 64
    memory_latency: int = 200
    memory_size: int = 1 << 30
    vid_bits: int = 6
    #: Coherence organisation: "snoopy" (the paper's design) or
    #: "directory" (the section 8 scaling extension).
    coherence: str = "snoopy"
    #: Machine shape (sockets × cores-per-socket, LLC slices, NUMA hops).
    #: ``None`` is the flat Table 2 machine; multi-socket specs slice the
    #: LLC per socket.  When set, its core count must equal ``num_cores``.
    topology: Optional[TopologySpec] = None
    #: Thread-placement policy: "pack" fills cores in id order (the
    #: historical mapping — flat machines are unaffected); "spread"
    #: round-robins worker threads across sockets first.
    placement: str = "pack"
    #: Directory knobs (only meaningful with ``coherence="directory"``;
    #: per-socket under a multi-socket topology).
    directory_banks: int = 8
    directory_latency: int = 12
    bank_occupancy: int = 4
    link_latency: int = 10
    #: Section 8 extension: spill speculative LLC victims to a memory-side
    #: version table instead of aborting ("unlimited read and write sets").
    unbounded_sets: bool = False
    #: One-way inter-core produce/consume latency for DSWP queues.  Pipeline
    #: paradigms pay it once at pipeline fill; DOACROSS pays it per
    #: iteration (section 2.1).
    queue_latency: int = 40
    op_costs: OpCosts = field(default_factory=OpCosts)

    def __post_init__(self) -> None:
        if self.topology is not None \
                and self.topology.num_cores != self.num_cores:
            raise ValueError(
                f"topology describes {self.topology.num_cores} cores "
                f"({self.topology.sockets}x"
                f"{self.topology.cores_per_socket}) but num_cores is "
                f"{self.num_cores}")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy "
                             f"{self.placement!r}; choose from "
                             f"{PLACEMENT_POLICIES}")

    def hierarchy_config(self) -> HierarchyConfig:
        """Project the machine configuration onto the cache hierarchy."""
        kwargs = dict(
            num_cores=self.num_cores,
            l1_size=self.l1_size,
            l1_assoc=self.l1_assoc,
            l1_latency=self.l1_latency,
            l2_size=self.l2_size,
            l2_assoc=self.l2_assoc,
            l2_latency=self.l2_latency,
            line_size=self.line_size,
            memory_latency=self.memory_latency,
            vid_bits=self.vid_bits,
            unbounded_sets=self.unbounded_sets,
            topology=self.topology,
        )
        if self.coherence == "directory":
            return DirectoryConfig(
                directory_banks=self.directory_banks,
                directory_latency=self.directory_latency,
                bank_occupancy=self.bank_occupancy,
                link_latency=self.link_latency,
                **kwargs)
        if self.coherence != "snoopy":
            raise ValueError(f"unknown coherence organisation "
                             f"{self.coherence!r}")
        return HierarchyConfig(**kwargs)

    def build_hierarchy(self):
        """Construct the configured memory system."""
        if self.coherence == "directory":
            return DirectoryHierarchy(self.hierarchy_config())
        return MemoryHierarchy(self.hierarchy_config())

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert a cycle count to wall-clock seconds at ``clock_ghz``."""
        return cycles / (self.clock_ghz * 1e9)

    def socket_of_core(self, core: int) -> int:
        """Socket owning ``core`` (0 for every core on a flat machine)."""
        if self.topology is None:
            return 0
        return self.topology.socket_of_core(core)

    @classmethod
    def for_topology(cls, preset_or_spec, coherence: str = "directory",
                     **overrides) -> "MachineConfig":
        """Machine for a topology preset name (or spec).

        Multi-socket machines default to directory coherence — the
        section 8 scaling organisation the topology exists for; pass
        ``coherence="snoopy"`` to model a (non-scalable) global bus.
        """
        spec = (topology_preset(preset_or_spec)
                if isinstance(preset_or_spec, str) else preset_or_spec)
        overrides.setdefault("num_cores", spec.num_cores)
        overrides.setdefault("coherence",
                             "snoopy" if spec.flat else coherence)
        return cls(topology=None if spec.flat else spec, **overrides)


def table2_config() -> MachineConfig:
    """The exact Table 2 machine (4 cores)."""
    return MachineConfig()


def small_test_config(num_cores: int = 2, l1_size: int = 4 * 1024,
                      l2_size: int = 64 * 1024) -> MachineConfig:
    """A deliberately tiny machine for overflow/eviction unit tests."""
    return MachineConfig(
        num_cores=num_cores,
        l1_size=l1_size,
        l1_assoc=2,
        l2_size=l2_size,
        l2_assoc=4,
    )
