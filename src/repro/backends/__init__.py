"""``repro.backends`` — the formal TM-backend interface and registry.

``protocol``
    :class:`TMBackend`, the structural contract between the paradigm
    executors and a transactional-memory implementation, plus the
    method/attribute lists the conformance suite enforces.
``registry``
    ``get_backend(name)`` over one literal table of named factories:
    ``"hmtx"`` (the paper's hardware), ``"smtx"`` (the software
    baseline) and ``"oracle"`` (an ideal TM for upper-bound curves).
``oracle``
    The ideal backend: SMTX's machine with every TM cost at zero.

Backend implementations are imported lazily by the table, so this
package is cheap and cycle-free to import from the runtime layer.  The
MTX contract the in-tree backends share lives in
:mod:`repro.core.mtx`, outside this package, for the same reason.
"""

from .protocol import PROTOCOL_ATTRIBUTES, PROTOCOL_METHODS, TMBackend
from .registry import backend_names, get_backend

__all__ = [
    "PROTOCOL_ATTRIBUTES",
    "PROTOCOL_METHODS",
    "TMBackend",
    "backend_names",
    "get_backend",
]
