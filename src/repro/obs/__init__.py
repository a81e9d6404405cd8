"""repro.obs — observability: metrics, timelines, cycle attribution.

Three coordinated layers over one recorded run:

* :mod:`repro.obs.registry` — labeled counters/gauges/histograms,
* :mod:`repro.obs.session` + :mod:`repro.obs.timeline` — per-VID
  transaction-lifecycle spans in simulated cycles,
* :mod:`repro.obs.profile` — every simulated cycle attributed to a
  category (useful / commit_stall / vid_reset / abort_replay /
  queue_wait / overflow / idle),

exported via :mod:`repro.obs.export` as Chrome trace-event JSON or a
terminal Gantt, and surfaced as ``python -m repro obs``.
:mod:`repro.obs.trace` records a run's MTX events one by one, at the
backend surface (for the race checker) or in the coherence protocol.

On top of the per-run digest sits the **regression observatory**:
:mod:`repro.obs.history` (cross-run content-addressed digest store),
:mod:`repro.obs.diff` (differential attribution — ``obs diff A B``),
and :mod:`repro.obs.whatif` (causal knob-sensitivity profiling).

This ``__init__`` imports only :mod:`repro.obs.hooks`, which the hot
path (``runtime.paradigms``) reads at module load; import every other
layer from its own module, so an uninstrumented run never pays for the
stack.
"""

from __future__ import annotations

from . import hooks  # noqa: F401  (the one eagerly-needed submodule)

__all__ = ["hooks"]
