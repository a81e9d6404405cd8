"""Reproduction of "Hardware Multithreaded Transactions" (ASPLOS 2018).

This package implements, in simulation, the HMTX system of Fix et al.:
a hardware transactional-memory design in which a single transaction may
span multiple threads (multithreaded transactions, MTXs), enabling
speculative pipeline parallelism (DSWP / PS-DSWP).

Layering (bottom up):

``repro.coherence``
    Versioned snoopy-MOESI cache hierarchy with the HMTX speculative
    states, lazy commit/abort, VID reset and overflow handling.
``repro.cpu``
    Core timing model, branch predictor (drives the SLA mechanism) and
    interrupt injection.
``repro.core``
    The HMTX programming interface: ``beginMTX`` / ``commitMTX`` /
    ``abortMTX`` / ``initMTX`` plus speculative loads and stores.
``repro.runtime``
    Discrete-event multicore scheduler and the parallel execution
    paradigms (Sequential, DOALL, DOACROSS, DSWP, PS-DSWP).
``repro.smtx``
    The software-MTX baseline the paper compares against.
``repro.workloads``
    Models of the paper's 8 benchmarks.
``repro.power``
    McPAT/CACTI-style area, power and energy model (Table 3).
``repro.experiments``
    Drivers that regenerate every table and figure of the evaluation.
"""

__version__ = "1.0.0"

from .errors import (
    MisspeculationError,
    ReproError,
    SpeculativeOverflowError,
    TransactionUsageError,
)

__all__ = [
    "MisspeculationError",
    "ReproError",
    "SpeculativeOverflowError",
    "TransactionUsageError",
    "__version__",
]
