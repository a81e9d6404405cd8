"""Versioned snoopy-MOESI cache coherence substrate with HMTX extensions.

The public surface of this subpackage:

* :class:`~repro.coherence.hierarchy.MemoryHierarchy` — the full memory
  system (per-core L1s, shared L2, snoopy bus, main memory).
* :class:`~repro.coherence.hierarchy.HierarchyConfig` — geometry/latency
  configuration (defaults follow the paper's Table 2).
* :mod:`~repro.coherence.protocol` — the pure Figure 4/6/7 transition
  rules on integer state codes, shared by the access paths, the lazy
  folds and the model checkers.
* :class:`~repro.coherence.vid.VidSpace` — the finite VID namespace.
"""

from .cache import CacheStats, VersionedCache
from .directory import DirectoryConfig, DirectoryHierarchy, DirectoryStats
from .overflow import OverflowVersionTable
from .hierarchy import AccessResult, HierarchyConfig, HierarchyStats, MemoryHierarchy
from .line import CacheLine
from .memory import MainMemory
from .states import State
from .vid import (
    DEFAULT_VID_BITS,
    NONSPECULATIVE_VID,
    CascadedComparator,
    VidExhaustedError,
    VidSpace,
)

__all__ = [
    "AccessResult",
    "CacheLine",
    "CacheStats",
    "CascadedComparator",
    "DirectoryConfig",
    "DirectoryHierarchy",
    "DirectoryStats",
    "OverflowVersionTable",
    "DEFAULT_VID_BITS",
    "HierarchyConfig",
    "HierarchyStats",
    "MainMemory",
    "MemoryHierarchy",
    "NONSPECULATIVE_VID",
    "State",
    "VersionedCache",
    "VidExhaustedError",
    "VidSpace",
]
