"""Parallel execution paradigms: Sequential, DOALL, DOACROSS, DSWP, PS-DSWP.

These paradigms compose a workload's loop-body fragments with MTX
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

Each paradigm module holds only a *builder*: given the workload and the
system, it returns the run's label and a ``build(start, serial)`` that
makes fresh per-thread programs — Figure 3's stage split, the VID each
iteration gets, and when it waits for its commit turn.  :mod:`.driver`
names every builder in one table and holds :func:`run_workload`, the one
code path that builds the backend, places the threads, drives abort
recovery and assembles the :class:`ParadigmResult`; :mod:`.base` holds
what the programs share (the section 4.6 VID-overflow protocol,
in-order commit spinning, the recovery loop).  Programs are written
against the :class:`~repro.backends.TMBackend` protocol, so any
registered backend (``hmtx``, ``smtx``, ``oracle``, …) runs under every
paradigm via the ``backend=`` / ``system_factory=`` keywords.
"""

from .base import (  # noqa: F401
    ParadigmResult,
    Program,
    RecoveryOutcome,
    allocate_vid_with_stall,
    run_serial_fallback,
    run_with_recovery,
    spin_until,
    wait_commit_turn,
    wait_for_epoch,
)
from .driver import PARADIGMS, run_workload  # noqa: F401

__all__ = [
    "PARADIGMS",
    "ParadigmResult",
    "Program",
    "RecoveryOutcome",
    "allocate_vid_with_stall",
    "run_serial_fallback",
    "run_with_recovery",
    "run_workload",
    "spin_until",
    "wait_commit_turn",
    "wait_for_epoch",
]
