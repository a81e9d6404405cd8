"""Parallel execution paradigms: Sequential, DOALL, DOACROSS, DSWP, PS-DSWP.

These executors compose a workload's loop-body fragments with MTX
transaction management, reproducing the execution models of Figure 1:

* **Sequential** — one thread, no speculation (the baseline).
* **DOALL** — iterations run fully independently on k threads; each
  iteration is a single-threaded transaction, committed in order (TLS).
* **DOACROSS** — iterations round-robin across k threads; the loop-carried
  value crosses cores *every iteration*, putting inter-core latency on the
  critical path (Figure 1b).
* **DSWP** — the body is split into two pipeline stages on two threads;
  each iteration is a *multithreaded transaction* spanning both.  The
  loop-carried dependence stays inside stage 1, so inter-core latency is
  paid only at pipeline fill (Figure 1c).
* **PS-DSWP** — DSWP whose second (iteration-independent) stage is
  replicated across k-1 worker threads (Figure 1d).

The package splits along the natural seams: :mod:`.base` holds the shared
executor plumbing (backend construction, the section 4.6 VID-overflow
protocol, abort recovery, result assembly), :mod:`.registry` the paradigm
name → runner dispatch, and one module per paradigm holds that paradigm's
loop structure.  Executors are written against the
:class:`~repro.backends.TMBackend` protocol, so any registered backend
(``hmtx``, ``smtx``, ``oracle``, …) runs under every paradigm via the
``backend=`` / ``system_factory=`` keywords.
"""

from .base import (  # noqa: F401
    ParadigmResult,
    Program,
    RecoveryOutcome,
    allocate_vid_with_stall,
    build_result,
    fresh_system,
    make_scheduler,
    run_serial_fallback,
    run_with_recovery,
    spin_until,
    wait_commit_turn,
    wait_for_epoch,
)
from .registry import (  # noqa: F401
    PARADIGMS,
    ParadigmRunner,
    get_paradigm,
    register_paradigm,
    run_workload,
)
from .sequential import run_sequential  # noqa: F401
from .doall import run_doall  # noqa: F401
from .doacross import run_doacross  # noqa: F401
from .ps_dswp import run_ps_dswp  # noqa: F401
from .dswp import run_dswp  # noqa: F401

__all__ = [
    "PARADIGMS",
    "ParadigmResult",
    "ParadigmRunner",
    "Program",
    "RecoveryOutcome",
    "allocate_vid_with_stall",
    "build_result",
    "fresh_system",
    "get_paradigm",
    "make_scheduler",
    "register_paradigm",
    "run_doacross",
    "run_doall",
    "run_dswp",
    "run_ps_dswp",
    "run_sequential",
    "run_serial_fallback",
    "run_with_recovery",
    "run_workload",
    "spin_until",
    "wait_commit_turn",
    "wait_for_epoch",
]
