"""Outside-in span tracer for the benchmark's traced (per-layer) pass.

Nothing here edits the program.  The traced executor builds each backend
itself and hands it to the paradigm runner through the public
``system_factory=`` keyword, after wrapping *instance* methods of the
layer objects: the backend (``HMTXSystem`` or ``SMTXSystem``), its
``MemoryHierarchy`` and every cache.  The system and the scheduler's
fused loop look those methods up on the instance, so the wrappers see
every call.  The scheduler itself is reached through the span around the
paradigm runner: its self time is the run minus the time spent inside
backend calls, workload generators included.

Each span records (name, start, end, span id, parent id, request id) in
memory; :meth:`Tracer.write` saves them when the pass ends.  Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.backends import get_backend
from repro.core.config import MachineConfig
from repro.experiments.engine import (
    RunRecord,
    RunRequest,
    build_workload,
    snapshot,
)
from repro.runtime.paradigms import ParadigmResult, run_workload
from repro.smtx import ValidationMode
from repro.smtx.runtime import validation_predicate_for
from repro.smtx.system import SMTXSystem
from repro.txctl import ContentionManager, make_policy
from repro.workloads import executor_factory_for

#: Backend memory and transaction methods (SMTX has no wrong-path load
#: and no VID reset).
MEM_METHODS = ("load", "store", "wrong_path_load")
TX_METHODS = ("begin_mtx", "commit_mtx", "abort_mtx", "allocate_vid",
              "vid_reset")
SMTX_METHODS = ("load", "store", "begin_mtx", "commit_mtx", "abort_mtx",
                "allocate_vid")
#: Hierarchy accesses and broadcasts.
ACCESS_METHODS = ("load", "store", "peek")
BROADCAST_METHODS = ("commit", "abort", "vid_reset")
CACHE_METHODS = ("broadcast_commit", "broadcast_abort", "vid_reset")


def caches_of(hierarchy) -> List[Any]:
    caches = list(hierarchy.l1s) + list(hierarchy.llc_slices)
    if hierarchy.overflow_table is not None:
        caches.append(hierarchy.overflow_table)
    return caches


class Tracer:
    """Span recorder plus the backends it instrumented in this pass."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int, int]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Open spans, innermost last: [span id, time covered by children].
        self._stack: List[List[Any]] = [[0, 0.0]]
        self._next_id = 1
        self.request_id = 0
        #: (kind, system) for every backend built during the pass.
        self.systems: List[Tuple[str, Any]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        parent = stack[-1]
        frame = [self._next_id, 0.0]
        self._next_id += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            elapsed = end - start
            parent[1] += elapsed
            self.calls[name] += 1
            self.self_s[name] += elapsed - frame[1]
            self.spans.append((name, start, end, frame[0], parent[0],
                               self.request_id))

    def _wrap(self, obj: Any, attr: str, name: str) -> None:
        original = getattr(obj, attr)
        call = self.call

        def traced(*args, **kwargs):
            return call(name, original, *args, **kwargs)

        setattr(obj, attr, traced)

    def _instrument_hierarchy(self, hierarchy) -> None:
        for attr in ACCESS_METHODS + BROADCAST_METHODS:
            self._wrap(hierarchy, attr, f"coherence.hierarchy.{attr}")
        for cache in caches_of(hierarchy):
            for attr in CACHE_METHODS:
                self._wrap(cache, attr, f"coherence.cache.{attr}")

    def instrument_hmtx(self, system):
        for attr in MEM_METHODS + TX_METHODS:
            self._wrap(system, attr, f"core.system.{attr}")
        self._instrument_hierarchy(system.hierarchy)
        self.systems.append(("hmtx", system))
        return system

    def instrument_smtx(self, system):
        for attr in SMTX_METHODS:
            self._wrap(system, attr, f"smtx.{attr}")
        self._instrument_hierarchy(system.timing)
        self.systems.append(("smtx", system))
        return system

    def write(self, path: str) -> None:
        """Save the recorded spans as JSON lines."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _hmtx(tracer: Tracer, machine: Optional[MachineConfig], sla_enabled: bool):
    """A traced HMTX backend, built as ``fresh_system`` builds it."""
    return tracer.instrument_hmtx(
        get_backend("hmtx")(config=machine, sla_enabled=sla_enabled))


def _run_smtx(tracer: Tracer, workload, machine: Optional[MachineConfig],
              mode: ValidationMode, paradigm: Optional[str],
              **kwargs) -> ParadigmResult:
    """``repro.smtx.run_smtx`` with a traced ``SMTXSystem``.

    ``run_smtx`` builds its system internally, so its few lines of
    machine carving and result accounting are repeated here; the traced
    pass compares every record with the untraced run's, so any drift
    from ``run_smtx`` fails the benchmark.
    """
    machine = machine or MachineConfig()
    if machine.topology is None:
        worker_config = MachineConfig(**{**machine.__dict__,
                                         "num_cores": machine.num_cores - 1})
    else:
        worker_config = machine
    predicate = validation_predicate_for(workload, mode)

    def factory() -> SMTXSystem:
        return tracer.instrument_smtx(SMTXSystem(
            config=worker_config, mode=mode, validation_predicate=predicate))

    name = paradigm or workload.paradigm
    if name in ("DSWP", "PS-DSWP"):
        kwargs.setdefault("inline_commit", True)
        kwargs.setdefault("stage2_workers",
                          max(1, worker_config.num_cores - 1))
    result = run_workload(workload, worker_config, paradigm=name,
                          system_factory=factory, **kwargs)
    commit_cycles = result.system.commit_process_cycles
    result.extra["worker_cycles"] = result.cycles
    result.extra["commit_process_cycles"] = commit_cycles
    result.extra["validation_mode"] = mode.value
    result.cycles = max(result.cycles, commit_cycles)
    result.paradigm = f"SMTX-{result.paradigm}"
    return result


def _run(tracer: Tracer, request: RunRequest, workload) -> ParadigmResult:
    """The engine's request dispatch, with every backend traced."""
    kwargs: Dict[str, Any] = {
        "executor_factory": (executor_factory_for(workload)
                             if request.calibrated else None)}
    system = request.system
    machine = request.machine
    if system == "sequential":
        return run_workload(
            workload, machine, paradigm=request.paradigm or "Sequential",
            system_factory=lambda: _hmtx(tracer, machine, True),
            **kwargs)
    if request.policy:
        kwargs["manager"] = ContentionManager(
            policy=make_policy(request.policy))
    if system.startswith("smtx-"):
        mode = ValidationMode(system.split("-", 1)[1])
        return _run_smtx(tracer, workload, machine, mode, request.paradigm,
                         **kwargs)
    if system not in ("hmtx", "hmtx-nosla"):
        raise ValueError(f"the traced pass does not run {system!r}")
    if request.paradigm:
        kwargs["paradigm"] = request.paradigm
    sla = system == "hmtx"
    return run_workload(
        workload, machine, sla_enabled=sla,
        system_factory=lambda: _hmtx(tracer, machine, sla),
        **kwargs)


def execute_traced(tracer: Tracer, request: RunRequest) -> RunRecord:
    """One request with spans around every layer call."""
    tracer.request_id += 1
    return tracer.call("request", _execute, tracer, request)


def _execute(tracer: Tracer, request: RunRequest) -> RunRecord:
    start = time.perf_counter()
    obs_digest = None
    if request.observe:
        from repro.obs.profile import attribute, digest
        from repro.obs.session import ObsSession
        session = ObsSession()
        with session.activate():
            workload = tracer.call("workloads.build", build_workload, request)
            result = tracer.call("runtime.run", _run, tracer, request,
                                 workload)
        session.detach()

        def summarise():
            session.finalize(result)
            return digest(session, attribute(session))

        obs_digest = tracer.call("obs.digest", summarise)
    else:
        workload = tracer.call("workloads.build", build_workload, request)
        result = tracer.call("runtime.run", _run, tracer, request, workload)
    return tracer.call("workloads.verify", snapshot, request, workload,
                       result, time.perf_counter() - start,
                       obs_digest=obs_digest)
