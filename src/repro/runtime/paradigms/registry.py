"""Paradigm registry: named entry points for every execution model.

Each paradigm module registers its runner at import time with
:func:`register_paradigm`; :func:`run_workload` dispatches on the Table 1
paradigm name.  New paradigms plug in the same way backends do — register
a runner and every driver, sweep spec, and CLI flag that takes a paradigm
name picks it up.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ...core.config import MachineConfig
from ...workloads.base import Workload
from .base import ParadigmResult

ParadigmRunner = Callable[..., ParadigmResult]

PARADIGMS: Dict[str, ParadigmRunner] = {}

#: Paradigms that never speculate: speculation-only keywords
#: (``sla_enabled``, ``manager``) are stripped before dispatch.
_NON_SPECULATIVE = {"Sequential"}


def register_paradigm(name: str,
                      speculative: bool = True,
                      ) -> Callable[[ParadigmRunner], ParadigmRunner]:
    """Class-less plugin hook: ``@register_paradigm("DOALL")``."""

    def decorate(runner: ParadigmRunner) -> ParadigmRunner:
        PARADIGMS[name] = runner
        if not speculative:
            _NON_SPECULATIVE.add(name)
        return runner

    return decorate


def get_paradigm(name: str) -> ParadigmRunner:
    if name not in PARADIGMS:
        raise ValueError(f"unknown paradigm {name!r}; "
                         f"choose from {sorted(PARADIGMS)}")
    return PARADIGMS[name]


def run_workload(workload: Workload, config: Optional[MachineConfig] = None,
                 paradigm: Optional[str] = None, **kwargs) -> ParadigmResult:
    """Run ``workload`` under ``paradigm`` (default: its Table 1 paradigm)."""
    name = paradigm or workload.paradigm
    runner = get_paradigm(name)
    if name in _NON_SPECULATIVE:
        kwargs.pop("sla_enabled", None)
        kwargs.pop("manager", None)
    return runner(workload, config, **kwargs)
