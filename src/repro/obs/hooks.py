"""The one nullable hook point the hot path checks.

Observability attaches to a run through exactly one module-level name:
``active``, the active :class:`~repro.obs.tap.Tap`.  It is ``None`` by
default, and every instrumentation site in the runtime guards on that
*before* doing anything else::

    if _obs.active is not None:
        _obs.active.attach_system(system)

The guard runs a handful of times per run (system and scheduler
construction, spin-loop exit), never inside the scheduler's step loop,
so instrumentation-off runs execute the exact same op stream (pinned by
``tests/obs/test_noop_guard.py`` and the fastpath goldens).  The step
loop has its own nullable hook, ``Scheduler.observer``, which the
session installs when the tap hands it the scheduler.

This module imports nothing from the package: ``runtime.paradigms.base``
imports it at module load, and any repro import here would cycle.
"""

from __future__ import annotations

from typing import Optional

#: The currently active :class:`~repro.obs.tap.Tap`, or None.  Only
#: ``Tap.activate`` and :func:`deactivate` should write this.
active: Optional[object] = None


def deactivate() -> None:
    """Clear the active tap (idempotent)."""
    global active
    active = None
