"""The formal TM-backend interface every system object implements.

:class:`TMBackend` is the contract between the paradigm executors of
:mod:`repro.runtime.paradigms` and a transactional-memory implementation.
The hybrid-TM literature (Alistarh et al.; Brown & Ravi) makes the case
that the interesting experiments are *comparisons across backends under
one harness*.  That requires the interface to be explicit: this protocol
names every method and attribute an executor may touch, and
``tests/backends/test_conformance.py`` holds each registered backend to
it (same signatures, same :class:`~repro.core.stats.SystemStats` shape,
same abort-cause taxonomy from :mod:`repro.txctl`, same MTX contract).

The protocol is structural, so a plugin registered with
:func:`~repro.backends.registry.register_backend` need not subclass
anything.  The three in-tree backends —
:class:`~repro.core.system.HMTXSystem` (the paper's hardware),
:class:`~repro.smtx.system.SMTXSystem` (the software baseline) and
:class:`~repro.backends.oracle.OracleTMSystem` (the ideal TM) — share one
implementation of the MTX contract, :class:`~repro.core.mtx.MTXMachine`,
and differ only in their memory operations and where versions live.

A backend models one machine running one TM scheme.  The surface:

* **lifecycle** — ``thread`` registers a hardware thread; ``allocate_vid``
  / ``ready_for_vid_reset`` / ``vid_reset`` implement the section 4.6
  VID-window protocol (backends with unbounded software VIDs simply never
  become ready).
* **the four MTX instructions** — ``begin_mtx`` / ``commit_mtx`` /
  ``abort_mtx`` / ``init_mtx`` (section 3.1), enforcing in-order commit.
* **memory** — ``load`` / ``store`` carry the issuing thread's VID;
  ``wrong_path_load`` models branch-speculative loads; ``kernel_load`` /
  ``kernel_store`` model handler code (section 5.2); ``output`` buffers
  program output until commit (4.7).
* **observability** — ``stats`` (a :class:`SystemStats`), ``config``,
  ``hierarchy`` (values + latency), ``active_vids`` / ``last_committed``
  / ``committed_output``.

Aborts are reported by raising :class:`~repro.errors.MisspeculationError`
with a :class:`~repro.txctl.causes.AbortCause` stamped at the raise site;
recovery policy belongs to the contention manager, never the backend.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

from ..coherence.hierarchy import AccessResult
from ..coherence.vid import VidSpace
from ..core.config import MachineConfig
from ..core.context import ThreadContext
from ..core.stats import SystemStats

#: The methods every backend must expose with *identical* signatures
#: (checked by the conformance suite; ``runtime_checkable`` protocols
#: only verify presence, not shape).
PROTOCOL_METHODS = (
    "thread",
    "allocate_vid",
    "ready_for_vid_reset",
    "vid_reset",
    "begin_mtx",
    "init_mtx",
    "commit_mtx",
    "abort_mtx",
    "load",
    "store",
    "wrong_path_load",
    "kernel_load",
    "kernel_store",
    "output",
)

#: The attributes executors and experiment drivers read.
PROTOCOL_ATTRIBUTES = (
    "config",
    "stats",
    "vid_space",
    "hierarchy",
    "contexts",
    "active_vids",
    "last_committed",
    "committed_output",
)


@runtime_checkable
class TMBackend(Protocol):
    """Structural interface of a transactional-memory system object."""

    config: MachineConfig
    stats: SystemStats
    vid_space: VidSpace
    contexts: Dict[int, ThreadContext]
    active_vids: Set[int]
    last_committed: int
    committed_output: list

    # -- lifecycle ------------------------------------------------------

    def thread(self, tid: int, core: int) -> ThreadContext: ...

    def allocate_vid(self) -> int: ...

    def ready_for_vid_reset(self) -> bool: ...

    def vid_reset(self) -> int: ...

    # -- the four MTX instructions (section 3.1) ------------------------

    def begin_mtx(self, tid: int, vid: int) -> int: ...

    def init_mtx(self, tid: int, handler: Callable[..., Any]) -> int: ...

    def commit_mtx(self, tid: int, vid: int) -> int: ...

    def abort_mtx(self, tid: int, vid: int) -> int: ...

    # -- memory ---------------------------------------------------------

    def load(self, tid: int, addr: int, now: int = 0) -> AccessResult: ...

    def store(self, tid: int, addr: int, value: int,
              now: int = 0) -> AccessResult: ...

    def wrong_path_load(self, tid: int, addr: int) -> Tuple[int, int]: ...

    def kernel_load(self, tid: int, addr: int) -> AccessResult: ...

    def kernel_store(self, tid: int, addr: int, value: int) -> AccessResult: ...

    def output(self, tid: int, value: Any) -> None: ...
