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

This ``__init__`` stays import-light (PEP 562 lazy attributes): the hot
path (``runtime.paradigms.base``) imports ``repro.obs.hooks`` at module
load, and pulling the whole stack in with it would tax every
uninstrumented run's startup for nothing.
"""

from __future__ import annotations

from . import hooks  # noqa: F401  (the one eagerly-needed submodule)

_LAZY = {
    "ObsSession": ("session", "ObsSession"),
    "MetricsRegistry": ("registry", "MetricsRegistry"),
    "attribute": ("profile", "attribute"),
    "digest": ("profile", "digest"),
    "load_digest": ("profile", "load_digest"),
    "HistoryStore": ("history", "HistoryStore"),
    "git_describe": ("history", "git_describe"),
    "diff_digest": ("diff", "diff_digest"),
    "diff_bundles": ("diff", "diff_bundles"),
    "format_diff": ("diff", "format_diff"),
    "run_whatif": ("whatif", "run_whatif"),
    "build_timeline": ("timeline", "build_timeline"),
    "TxSpan": ("timeline", "TxSpan"),
    "Timeline": ("timeline", "Timeline"),
    "to_chrome_trace": ("export", "to_chrome_trace"),
    "write_chrome_trace": ("export", "write_chrome_trace"),
    "validate_trace": ("export", "validate_trace"),
    "render_gantt": ("export", "render_gantt"),
    "TraceEvent": ("trace", "TraceEvent"),
    "BackendTracer": ("trace", "BackendTracer"),
    "ProtocolTracer": ("trace", "ProtocolTracer"),
    "format_trace": ("trace", "format_trace"),
    "format_address_history": ("trace", "format_address_history"),
    "format_summary": ("trace", "format_summary"),
}

__all__ = ["hooks"] + sorted(_LAZY)


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}") from None
    import importlib  # lint-ok: RL005 (PEP 562 lazy loader — the whole point is not importing the stack at package-import time)
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value
    return value
