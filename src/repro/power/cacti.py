"""CACTI-style SRAM area/leakage/energy estimation.

McPAT models caches through CACTI [24], which performs architectural
modelling of SRAM arrays.  This module is a deliberately small analytic
stand-in: area scales with bit count (denser for the large, slower L2 array
than for fast L1/tag arrays), leakage scales with area, and per-access
dynamic energy grows with the square root of array size (bitline/wordline
length).  Constants are calibrated at the 22nm node so that the paper's
Table 2 machine reproduces Table 3's McPAT outputs (107.1 mm² commodity,
+4.0 mm² for the HMTX extensions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MBIT = 1024 * 1024
#: Physical address width the cache tags cover.
ADDRESS_BITS = 48


@dataclass(frozen=True)
class SramEstimate:
    """Physical estimate for one SRAM array."""

    bits: int
    area_mm2: float
    leakage_w: float
    read_energy_nj: float

    def __add__(self, other: "SramEstimate") -> "SramEstimate":
        return SramEstimate(
            self.bits + other.bits,
            self.area_mm2 + other.area_mm2,
            self.leakage_w + other.leakage_w,
            self.read_energy_nj + other.read_energy_nj,
        )


@dataclass(frozen=True)
class TechnologyNode:
    """Process technology constants (22nm defaults, calibrated to Table 3)."""

    name: str = "22nm"
    #: mm^2 per Mbit for large, density-optimised arrays (the 32 MB L2).
    dense_mm2_per_mbit: float = 0.2180
    #: mm^2 per Mbit for fast, latency-optimised arrays (L1s, tag arrays).
    fast_mm2_per_mbit: float = 0.5500
    #: Leakage per mm^2 of SRAM (power gating + low standby power applied,
    #: as the paper's methodology states).
    sram_leak_w_per_mm2: float = 0.0230
    #: Base dynamic read energy (nJ) for a 1 Mbit fast array; grows with
    #: sqrt(capacity).
    base_read_energy_nj: float = 0.0550


def sram_array(bits: int, fast: bool,
               tech: TechnologyNode = TechnologyNode()) -> SramEstimate:
    """Estimate one SRAM array of ``bits`` bits.

    ``fast`` selects the latency-optimised corner (L1 data/tag arrays,
    per-line VID tag bits) over the density-optimised one (L2 data).
    """
    if bits <= 0:
        return SramEstimate(0, 0.0, 0.0, 0.0)
    mbits = bits / MBIT
    density = tech.fast_mm2_per_mbit if fast else tech.dense_mm2_per_mbit
    area = mbits * density
    leak = area * tech.sram_leak_w_per_mm2
    energy = tech.base_read_energy_nj * math.sqrt(max(mbits, 1.0 / 64))
    return SramEstimate(bits, area, leak, energy)


def cache_arrays(size_bytes: int, assoc: int, line_size: int,
                 fast: bool = False,
                 extra_state_bits: int = 0,
                 tech: TechnologyNode = TechnologyNode()) -> SramEstimate:
    """Data + tag (+ optional extension-state) arrays of one cache.

    ``extra_state_bits`` models per-line additions such as HMTX's two 6-bit
    VIDs (section 6.4: "adding 12 bits to every line in the cache").
    """
    lines = size_bytes // line_size
    sets = lines // assoc
    index_bits = max(1, int(math.log2(max(sets, 1))))
    offset_bits = int(math.log2(line_size))
    tag_bits_per_line = ADDRESS_BITS - index_bits - offset_bits
    # MOESI state + LRU bookkeeping alongside the tag.
    state_bits_per_line = 4
    data = sram_array(lines * line_size * 8, fast=fast, tech=tech)
    tags = sram_array(lines * (tag_bits_per_line + state_bits_per_line),
                      fast=True, tech=tech)
    extension = sram_array(lines * extra_state_bits, fast=True, tech=tech)
    return data + tags + extension
