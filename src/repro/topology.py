"""Declarative machine topology: sockets, LLC slices, NUMA latencies.

The paper's Table 2 machine is a flat multicore: N cores over one shared
L2 on one snoopy bus.  Section 8 proposes adapting HMTX to a directory
protocol "to allow for efficient scaling to many more cores" — and at
64–256 cores the machine stops being flat: cores live on *sockets*, the
last-level cache is *sliced* per socket, and a cache miss pays a very
different price depending on whether its data is one hop away on the same
die or across a socket interconnect.

:class:`TopologySpec` is the frozen, declarative description of that
shape.  Everything downstream — the cache hierarchy, the directory, the
scheduler's thread placement, the cycle profiler's per-socket attribution
— is *derived* from a spec rather than hard-coded:

* cores are numbered socket-major: socket ``s`` owns cores
  ``[s * cores_per_socket, (s + 1) * cores_per_socket)``;
* each socket carries one LLC slice; line addresses are interleaved
  across sockets (:meth:`TopologySpec.home_socket`), so every line has
  exactly one *home slice* that owns its directory entry;
* message latencies are two-tier: ``intra_hop_latency`` on-die,
  ``cross_hop_latency`` over the socket interconnect;
* commit/abort/VID-reset broadcasts travel a multicast tree — a
  cross-socket tree over the sockets, then an on-die tree per socket —
  so the section 4.6 reset-scrub stall *grows with the topology* instead
  of being a flat constant.

A spec with ``sockets == 1`` is the flat machine: every consumer treats
it exactly like "no topology" (pinned by a hypothesis property in
``tests/integration/test_topology_golden.py``), so the paper's Table 2
results are bit-identical with or without a declared topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

#: Thread-placement policies understood by :func:`place_core`.
PLACEMENT_POLICIES = ("pack", "spread")


@dataclass(frozen=True)
class TopologySpec:
    """Frozen description of a multi-socket machine shape.

    Defaults describe one socket of the Table 2 machine; the presets in
    :data:`TOPOLOGY_PRESETS` scale it to big-iron shapes.
    """

    #: Number of sockets (NUMA nodes).  1 means the flat Table 2 machine.
    sockets: int = 1
    #: Cores per socket; total cores = ``sockets * cores_per_socket``.
    cores_per_socket: int = 4
    #: Per-socket LLC slice capacity in bytes (applies when ``sockets > 1``;
    #: a 1-socket machine keeps the ``MachineConfig`` L2 geometry).
    llc_slice_size: int = 8 * 1024 * 1024
    #: Ways per set in each LLC slice.
    llc_slice_assoc: int = 16
    #: Hit latency of an LLC slice, cycles.
    llc_slice_latency: int = 40
    #: One-way on-die hop latency (core <-> local slice / directory bank).
    intra_hop_latency: int = 10
    #: One-way socket-interconnect hop latency (QPI/UPI-class link).
    cross_hop_latency: int = 60
    #: Home-socket interleaving function; ``"line"`` round-robins line
    #: addresses across sockets (the only scheme currently modelled).
    home_interleave: str = "line"
    #: Multiplier on the section 4.6 reset-scrub stall
    #: (:meth:`reset_scrub_latency`).  1.0 is the physical model; the
    #: what-if profiler (``python -m repro obs whatif``) perturbs it to
    #: measure how much of the makespan is causally downstream of the
    #: scrub barrier.  Flat (1-socket) machines have no barrier and
    #: ignore it.
    scrub_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError(f"sockets must be >= 1, got {self.sockets}")
        if self.cores_per_socket < 1:
            raise ValueError(f"cores_per_socket must be >= 1, "
                             f"got {self.cores_per_socket}")
        if self.home_interleave != "line":
            raise ValueError(f"unknown home_interleave "
                             f"{self.home_interleave!r} (expected 'line')")
        for name in ("llc_slice_size", "llc_slice_assoc",
                     "llc_slice_latency", "intra_hop_latency",
                     "cross_hop_latency"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.scrub_scale <= 0:
            raise ValueError(f"scrub_scale must be > 0, "
                             f"got {self.scrub_scale}")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def flat(self) -> bool:
        """A 1-socket spec is the flat machine of the paper."""
        return self.sockets == 1

    def socket_of_core(self, core: int) -> int:
        """Socket owning ``core`` (cores are numbered socket-major)."""
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} outside 0..{self.num_cores - 1}")
        return core // self.cores_per_socket

    def cores_of_socket(self, socket: int) -> range:
        """The core-id range of one socket."""
        if not 0 <= socket < self.sockets:
            raise ValueError(f"socket {socket} outside 0..{self.sockets - 1}")
        start = socket * self.cores_per_socket
        return range(start, start + self.cores_per_socket)

    def home_socket(self, addr: int, line_size: int = 64) -> int:
        """Home socket of a line address (line-interleaved across sockets).

        The home slice holds the line's directory entry and receives the
        line's LLC-bound victims; interleaving by line address spreads
        directory and slice pressure uniformly.
        """
        if self.sockets == 1:
            return 0
        return (addr // line_size) % self.sockets

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------

    def hop_latency(self, socket_a: int, socket_b: int) -> int:
        """One-way message latency between two sockets' tiles."""
        return (self.intra_hop_latency if socket_a == socket_b
                else self.cross_hop_latency)

    def multicast_latency(self, base_latency: int) -> int:
        """Cycles for a commit/abort broadcast over the multicast tree.

        The broadcast first fans across the socket interconnect (a binary
        tree over the sockets, each edge a cross hop), then down each die
        (a binary tree over the cores of one socket, each edge an on-die
        hop).  With one socket this reduces to the flat formula the
        directory hierarchy has always used.
        """
        intra_depth = max(1, math.ceil(
            math.log2(self.cores_per_socket + 1)))
        latency = base_latency + intra_depth * self.intra_hop_latency
        if self.sockets > 1:
            cross_depth = max(1, math.ceil(math.log2(self.sockets)))
            latency += cross_depth * self.cross_hop_latency
        return latency

    def reset_scrub_latency(self, base_latency: int,
                            slice_latency: int) -> int:
        """Cycles a section 4.6 VID reset stalls the whole machine.

        The reset is a multicast plus a *scrub barrier*: every LLC slice
        sweeps its speculative lines and acknowledges up the same tree.
        Slices scrub in parallel, but the acknowledgment collection
        serialises one slice-latency window per socket — the reset-scrub
        stall the ROADMAP's scaling story is about: it grows linearly
        with the socket count on top of the log-depth tree.
        """
        if self.sockets == 1:
            return base_latency
        stall = (self.multicast_latency(base_latency)
                 + self.sockets * slice_latency
                 + self.cross_hop_latency)
        # scrub_scale == 1.0 is exact identity (round(1.0 * int) == int),
        # so the physical model is bit-identical to the pre-knob machine.
        return int(round(self.scrub_scale * stall))

    # ------------------------------------------------------------------
    # Description (reports, tables)
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, int]:
        """Plain-data shape summary for report artifacts."""
        shape = {
            "sockets": self.sockets,
            "cores_per_socket": self.cores_per_socket,
            "num_cores": self.num_cores,
            "llc_slice_size": self.llc_slice_size,
            "llc_slice_assoc": self.llc_slice_assoc,
            "llc_slice_latency": self.llc_slice_latency,
            "intra_hop_latency": self.intra_hop_latency,
            "cross_hop_latency": self.cross_hop_latency,
        }
        if self.scrub_scale != 1.0:
            # Only a perturbed machine reports the knob, so existing
            # artifacts (REPORT_scaling.json) keep their exact shape.
            shape["scrub_scale"] = self.scrub_scale
        return shape


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

#: Named machine shapes.  ``table2`` is the paper's flat 4-core machine;
#: the big-iron presets follow ROADMAP item 1 (64–256 cores, per-socket
#: LLC slices, directory-style cross-socket coherence).  ``2s8c`` is the
#: CI smoke machine: small enough for a per-push job but multi-socket
#: enough to exercise slices, NUMA links, per-socket banks and the
#: placement policies; ``4s16c`` is its 4-socket sibling at the same cost
#: class, so the what-if profiler can contrast knob sensitivities across
#: socket counts without paying for the 128-core presets.
TOPOLOGY_PRESETS: Dict[str, TopologySpec] = {
    "table2": TopologySpec(sockets=1, cores_per_socket=4),
    "2s64c": TopologySpec(sockets=2, cores_per_socket=32),
    "4s128c": TopologySpec(sockets=4, cores_per_socket=32),
    "4s256c": TopologySpec(sockets=4, cores_per_socket=64),
    "2s8c": TopologySpec(sockets=2, cores_per_socket=4),
    "4s16c": TopologySpec(sockets=4, cores_per_socket=4),
}


def topology_preset(name: str) -> TopologySpec:
    """Look up a named preset; raises ``KeyError`` with the valid names."""
    try:
        return TOPOLOGY_PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown topology preset {name!r}; choose from "
                       f"{sorted(TOPOLOGY_PRESETS)}") from None


# ----------------------------------------------------------------------
# Thread placement
# ----------------------------------------------------------------------

def place_core(index: int, num_cores: int, topology: "TopologySpec" = None,
               policy: str = "pack") -> int:
    """Core for the ``index``-th worker thread under a placement policy.

    ``pack``
        Fill cores in id order (socket 0 first) — the historical
        ``index % num_cores`` mapping, so flat machines are bit-identical
        to the pre-topology scheduler.
    ``spread``
        Round-robin workers across sockets first, then across the cores
        of each socket — maximises per-thread LLC slice capacity and
        spreads directory-bank pressure, at the price of cross-socket
        commit traffic.
    """
    if policy not in PLACEMENT_POLICIES:
        raise ValueError(f"unknown placement policy {policy!r}; "
                         f"choose from {PLACEMENT_POLICIES}")
    if policy == "pack" or topology is None or topology.flat:
        return index % num_cores
    slot = index % num_cores
    socket = slot % topology.sockets
    within = (slot // topology.sockets) % topology.cores_per_socket
    return socket * topology.cores_per_socket + within


def placement_map(num_threads: int, num_cores: int,
                  topology: "TopologySpec" = None,
                  policy: str = "pack") -> List[int]:
    """The full worker-index -> core mapping (tests, reports)."""
    return [place_core(i, num_cores, topology, policy)
            for i in range(num_threads)]
