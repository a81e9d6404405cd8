"""McPAT-style area, power, and energy model of the Table 2 machine.

Reproduces the methodology of section 6.4: McPAT (with CACTI inside) at the
22nm node, power gating and low L2 standby power enabled.  The model is
analytic, with constants calibrated so the commodity 4-core configuration
lands on Table 3's published values (107.1 mm², 5.515 W leakage) and the
HMTX extensions add ~4.0 mm² (12 VID bits per line plus the low/high
cascaded comparators of section 4.5).

Dynamic power is utilisation-based: each core contributes its busy
fraction, caches contribute per-access energy, and the HMTX extensions add
a small per-access comparator overhead even when unused — the effect the
paper quantifies by re-running SMTX/sequential binaries on HMTX hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.config import MachineConfig
from .cacti import SramEstimate, TechnologyNode, cache_arrays

#: Area of one out-of-order Alpha-21264-class core at 22nm (mm^2),
#: including its private L1 I/D pair's periphery and core-side interconnect.
CORE_AREA_MM2 = 10.03
#: Core logic leakage (W per core) with power gating.
CORE_LEAK_W = 0.994
#: Dynamic power of one fully-busy core (W) at 2 GHz, geomean workload.
CORE_DYNAMIC_W = 3.30
#: Uncore/bus dynamic power when the machine is active (W).
UNCORE_DYNAMIC_W = 0.18
#: Extra logic area for the cascaded VID comparators and commit/abort
#: broadcast handling (mm^2 total across the system).
HMTX_LOGIC_AREA_MM2 = 0.55
#: Relative dynamic-energy overhead of checking VID tags on every cache
#: access when HMTX hardware is present (section 4.5 keeps this small via
#: the split low/high comparison).
HMTX_ACCESS_OVERHEAD = 0.0115
#: Dynamic energy per L1 access (nJ) and per L2/bus transaction (nJ).
L1_ACCESS_NJ = 0.035
L2_ACCESS_NJ = 0.45


@dataclass(frozen=True)
class AreaBreakdown:
    """Die area by component (mm^2)."""

    cores: float
    l1_caches: float
    l2_cache: float
    hmtx_extensions: float

    @property
    def total(self) -> float:
        return self.cores + self.l1_caches + self.l2_cache + self.hmtx_extensions


@dataclass(frozen=True)
class PowerReport:
    """One Table 3 row."""

    label: str
    area_mm2: float
    leakage_w: float
    dynamic_w: float
    seconds: float

    @property
    def energy_j(self) -> float:
        return (self.leakage_w + self.dynamic_w) * self.seconds


@dataclass
class RunProfile:
    """Activity profile extracted from one simulated run."""

    cycles: int
    #: Per-core busy fraction in [0, 1] (a dedicated SMTX commit process
    #: counts as a busy core).
    busy_fractions: Dict[int, float] = field(default_factory=dict)
    l1_accesses: int = 0
    l2_accesses: int = 0
    #: True when the run exercises the HMTX extensions (speculative VIDs).
    hmtx_active: bool = False


class McPatModel:
    """Area/power/energy estimator for one machine configuration.

    Parameters
    ----------
    machine:
        The simulated machine (Table 2 by default).
    hmtx_extensions:
        Whether the die includes HMTX hardware (12 extra bits per line,
        comparators).  Software running on HMTX hardware pays the small
        access-energy overhead even if it never speculates.
    """

    def __init__(self, machine: Optional[MachineConfig] = None,
                 hmtx_extensions: bool = False,
                 tech: Optional[TechnologyNode] = None) -> None:
        self.machine = machine or MachineConfig()
        self.hmtx = hmtx_extensions
        self.tech = tech or TechnologyNode()
        self._vid_bits_per_line = 2 * self.machine.vid_bits  # modVID+highVID

    # ------------------------------------------------------------------
    # Area and leakage
    # ------------------------------------------------------------------

    def _l1_estimate(self) -> SramEstimate:
        extra = self._vid_bits_per_line if self.hmtx else 0
        per_core = cache_arrays(self.machine.l1_size, self.machine.l1_assoc,
                                self.machine.line_size, fast=True,
                                extra_state_bits=extra, tech=self.tech)
        # I and D caches per core (Table 2); VID bits only on the D side,
        # but `extra` was already applied once per core above.
        icache = cache_arrays(self.machine.l1_size, self.machine.l1_assoc,
                              self.machine.line_size, fast=True,
                              extra_state_bits=0, tech=self.tech)
        total = per_core + icache
        return SramEstimate(total.bits * self.machine.num_cores,
                            total.area_mm2 * self.machine.num_cores,
                            total.leakage_w * self.machine.num_cores,
                            per_core.read_energy_nj)

    def _l2_estimate(self) -> SramEstimate:
        extra = self._vid_bits_per_line if self.hmtx else 0
        return cache_arrays(self.machine.l2_size, self.machine.l2_assoc,
                            self.machine.line_size, fast=False,
                            extra_state_bits=extra, tech=self.tech)

    def _baseline_model(self) -> "McPatModel":
        """The same machine without HMTX extensions (for deltas)."""
        return McPatModel(self.machine, hmtx_extensions=False, tech=self.tech)

    def area(self) -> AreaBreakdown:
        """Die area by component.

        The HMTX extension area is reported separately: the per-line VID
        tag bits (the dominant term, section 6.4) plus the comparator and
        broadcast logic.
        """
        l1 = self._l1_estimate()
        l2 = self._l2_estimate()
        extension = 0.0
        if self.hmtx:
            base = self._baseline_model()
            tag_delta = ((l1.area_mm2 - base._l1_estimate().area_mm2)
                         + (l2.area_mm2 - base._l2_estimate().area_mm2))
            extension = tag_delta + HMTX_LOGIC_AREA_MM2
            l1 = base._l1_estimate()
            l2 = base._l2_estimate()
        return AreaBreakdown(
            cores=CORE_AREA_MM2 * self.machine.num_cores,
            l1_caches=l1.area_mm2,
            l2_cache=l2.area_mm2,
            hmtx_extensions=extension,
        )

    def total_area(self) -> float:
        return self.area().total

    def leakage(self) -> float:
        """Total leakage (W): core logic plus all SRAM arrays."""
        return (CORE_LEAK_W * self.machine.num_cores
                + self._l1_estimate().leakage_w
                + self._l2_estimate().leakage_w
                + (HMTX_LOGIC_AREA_MM2 * self.tech.sram_leak_w_per_mm2 * 2
                   if self.hmtx else 0.0))

    # ------------------------------------------------------------------
    # Dynamic power and energy
    # ------------------------------------------------------------------

    def dynamic_power(self, profile: RunProfile) -> float:
        """Runtime dynamic power (W) for one activity profile."""
        if profile.cycles <= 0:
            return 0.0
        core_power = CORE_DYNAMIC_W * sum(profile.busy_fractions.values())
        seconds = self.machine.cycles_to_seconds(profile.cycles)
        l1_rate = profile.l1_accesses / seconds if seconds else 0.0
        l2_rate = profile.l2_accesses / seconds if seconds else 0.0
        cache_power = (l1_rate * L1_ACCESS_NJ + l2_rate * L2_ACCESS_NJ) * 1e-9
        power = core_power + cache_power + UNCORE_DYNAMIC_W
        if self.hmtx:
            power *= (1.0 + HMTX_ACCESS_OVERHEAD)
        return power

    def report(self, label: str, profile: RunProfile) -> PowerReport:
        """Assemble one Table 3 row for a run."""
        return PowerReport(
            label=label,
            area_mm2=self.total_area(),
            leakage_w=self.leakage(),
            dynamic_w=self.dynamic_power(profile),
            seconds=self.machine.cycles_to_seconds(profile.cycles),
        )

