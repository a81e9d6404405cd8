"""Versioned snoopy-MOESI cache coherence substrate with HMTX extensions.

The public surface of this subpackage:

* :class:`~repro.coherence.hierarchy.MemoryHierarchy` — the full memory
  system (per-core L1s, shared L2, snoopy bus, main memory), and
  :class:`~repro.coherence.directory.DirectoryHierarchy`, its section 8
  directory organisation.  Both are built from the one machine
  description, :class:`repro.core.config.MachineConfig` (Table 2
  defaults), which this package reads but never imports.
* :mod:`~repro.coherence.protocol` — the pure Figure 4/6/7 transition
  rules on integer state codes, shared by the access paths, the lazy
  folds and the model checkers.
* :class:`~repro.coherence.vid.VidSpace` — the finite VID namespace.
"""

from .cache import CacheStats, VersionedCache
from .directory import DirectoryHierarchy, DirectoryStats
from .overflow import OverflowVersionTable
from .hierarchy import Access, HierarchyStats, MemoryHierarchy
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
    "Access",
    "CacheStats",
    "CascadedComparator",
    "DirectoryHierarchy",
    "DirectoryStats",
    "OverflowVersionTable",
    "DEFAULT_VID_BITS",
    "HierarchyStats",
    "MainMemory",
    "MemoryHierarchy",
    "NONSPECULATIVE_VID",
    "State",
    "VersionedCache",
    "VidExhaustedError",
    "VidSpace",
]
