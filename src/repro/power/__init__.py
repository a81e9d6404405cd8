"""McPAT/CACTI-style area, power, and energy model (Table 3)."""

from .cacti import MBIT, SramEstimate, TechnologyNode, cache_arrays, sram_array
from .mcpat import AreaBreakdown, McPatModel, PowerReport, RunProfile

__all__ = [
    "AreaBreakdown",
    "MBIT",
    "McPatModel",
    "PowerReport",
    "RunProfile",
    "SramEstimate",
    "TechnologyNode",
    "cache_arrays",
    "sram_array",
]
