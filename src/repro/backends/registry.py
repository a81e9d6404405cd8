"""Backend table: the named constructor of every TM implementation.

``get_backend("hmtx")`` returns the class that builds a fresh
:class:`~repro.backends.protocol.TMBackend`.  :data:`BACKENDS` is the
one literal table; a new backend is one more entry, and then works
everywhere a backend name is accepted.

Entries are ``(module, attr)`` pairs imported on first use, so importing
this module pulls in no system implementation: ``repro.smtx`` imports
the runtime package, which imports this table, and eager imports would
cycle.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Tuple

from .protocol import TMBackend

#: Backend name → ``(module, attr)`` of its ``factory(config=None,
#: **kwargs) -> TMBackend``.
BACKENDS: Dict[str, Tuple[str, str]] = {
    "hmtx": ("repro.core.system", "HMTXSystem"),
    "smtx": ("repro.smtx.system", "SMTXSystem"),
    "oracle": ("repro.backends.oracle", "OracleTMSystem"),
}


def get_backend(name: str) -> Callable[..., TMBackend]:
    """The factory named ``name``.

    Raises ``KeyError`` with the available names for a typo'd backend.
    """
    if name not in BACKENDS:
        raise KeyError(f"unknown backend {name!r}; "
                       f"choose from {backend_names()}")
    module_name, attr = BACKENDS[name]
    return getattr(importlib.import_module(module_name), attr)


def backend_names() -> Tuple[str, ...]:
    """Every backend name, sorted."""
    return tuple(sorted(BACKENDS))
