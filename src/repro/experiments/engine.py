"""Declarative sweep engine: run requests, records, parallel execution.

The experiment drivers used to each own a private run loop over
``(benchmark, system)`` pairs.  This module replaces those loops with one
declarative model:

* :class:`RunRequest` — a picklable value object naming one simulated
  run: workload, system (a backend/validation-mode label), scale,
  paradigm, contention policy, machine config.
* :class:`RunRecord` — the plain-data snapshot of one completed run:
  every metric any driver reads (cycles, stats, abort taxonomy, thread
  activity for the power model), detached from the live simulator so it
  crosses process boundaries.
* :class:`SweepSpec` — a named, ordered list of requests.
* :class:`SweepEngine` — executes requests serially or across a
  ``concurrent.futures.ProcessPoolExecutor`` (``jobs=N``), caching by
  request key.

Determinism contract (pinned by ``tests/experiments/test_engine.py`` and
the CI sweep-smoke job): results are merged in **spec order**, never
completion order, and each worker runs exactly one deterministic
simulation per request — so ``--jobs N`` output is byte-identical to
serial for every N.  Wall-clock timing is recorded per run
(``wall_seconds``) but excluded from :meth:`RunRecord.to_report`, keeping
reports diffable across machines and job counts.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..backends import backend_names
from ..core.config import MachineConfig
from ..power.mcpat import RunProfile
from ..runtime.paradigms import ParadigmResult, run_workload
from ..smtx import ValidationMode, run_smtx
from ..txctl import ContentionManager, make_policy
from ..workloads import executor_factory_for, make_workload
from ..workloads.base import Workload

#: Adversarial workloads runnable by name alongside the Table 1 suite.
CONTENDED_WORKLOADS = ("contended-list", "capacity-hog")

#: System labels with dedicated handling; any registered backend name
#: (e.g. ``"oracle"``) is also accepted verbatim.
SYSTEM_LABELS = ("sequential", "hmtx", "hmtx-nosla",
                 "smtx-minimal", "smtx-substantial", "smtx-maximal")


def config_digest(config: Optional[MachineConfig]) -> str:
    """Stable short digest of a machine config (cache-key component)."""
    if config is None:
        return "default"
    payload = repr(sorted(vars(config).items()))
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunRequest:
    """One simulated run, as a value: what to execute, not how."""

    workload: str
    system: str = "hmtx"
    scale: float = 1.0
    paradigm: Optional[str] = None
    #: txctl retry-policy name (``repro.txctl.POLICIES``); None = default.
    policy: Optional[str] = None
    machine: Optional[MachineConfig] = None
    #: Use the benchmark's calibrated branch-mix executor (drivers do;
    #: the wall-clock bench harness historically does not).
    calibrated: bool = True
    #: Identity tag: requests differing only in ``repeat`` are distinct
    #: cache entries.  The bench harness uses this for best-of-N timing
    #: (a cached record would report the first run's wall time forever).
    repeat: int = 0
    #: Run with an :mod:`repro.obs` session attached; the record then
    #: carries the cycle-attribution digest.  Distinct cache entry from
    #: the unobserved run even though the simulation is identical.
    observe: bool = False
    #: Workload-factory keyword arguments as a sorted, hashable tuple of
    #: ``(name, value)`` pairs (build with :func:`request_options`) —
    #: how e.g. an svc seed reaches the factory through the registry.
    options: Tuple[Tuple[str, Any], ...] = ()

    def key(self) -> Tuple:
        """Cache/dedupe key; hashes the (mutable) machine config."""
        return (self.workload, self.system, self.scale, self.paradigm,
                self.policy, self.calibrated, self.repeat, self.observe,
                self.options, config_digest(self.machine))


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered batch of runs (order defines merge order)."""

    name: str
    requests: Tuple[RunRequest, ...]

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(self.requests))


@dataclass(frozen=True)
class RunRecord:
    """Plain-data snapshot of one completed run.

    Carries everything any experiment driver reads, so drivers never
    touch a live system object — records are picklable, cacheable, and
    identical whether produced in-process or by a pool worker.
    """

    workload: str
    system: str
    scale: float
    paradigm: str
    cycles: int
    recoveries: int
    committed: int
    aborted: int
    ops_executed: int
    #: Did the run preserve sequential semantics?
    correct: bool
    hot_loop_fraction: float
    # SystemStats derivatives (Table 1 / Figure 9)
    avg_spec_accesses_per_tx: float
    avoided_aborts_per_tx: float
    sla_fraction_of_spec_loads: float
    avg_read_set_kb: float
    avg_write_set_kb: float
    avg_combined_set_kb: float
    # Instruction mix from the run's core executor (Table 1)
    branch_fraction: float
    mispredict_rate: float
    # txctl contention outcome (contention sweep)
    aborts_by_cause: Dict[str, int]
    cause_summary: str
    backoff_cycles: int
    fallback_iterations: int
    degraded_serial: bool
    serial_fallback: bool
    # SMTX commit-process accounting (Table 3, Figure 2)
    commit_process_cycles: Optional[int]
    worker_cycles: Optional[int]
    validation_mode: Optional[str]
    # Activity profile inputs (Table 3 power model, bench)
    thread_clocks: Dict[Any, int]
    l1_accesses: int
    l2_accesses: int
    #: Simulator wall time for this run; excluded from reports.
    wall_seconds: float = field(compare=False)
    #: Cycle-attribution digest (``hmtx-obs-digest/1``) when the request
    #: ran observed; plain data so it crosses the pool boundary.
    obs_digest: Optional[Dict[str, Any]] = None

    def power_profile(self, commit_process: bool = False,
                      hmtx_active: bool = False) -> RunProfile:
        """Activity profile for the McPAT model (was profile_from_result)."""
        cycles = max(1, self.cycles)
        busy = {tid: min(1.0, clock / cycles)
                for tid, clock in self.thread_clocks.items()}
        if commit_process:
            commit_cycles = self.commit_process_cycles
            if commit_cycles is None:
                commit_cycles = cycles
            busy["commit"] = min(1.0, commit_cycles / cycles)
        return RunProfile(cycles=cycles, busy_fractions=busy,
                          l1_accesses=self.l1_accesses,
                          l2_accesses=self.l2_accesses,
                          hmtx_active=hmtx_active)

    def to_report(self) -> Dict[str, Any]:
        """JSON-ready dict, excluding wall-clock (the one field that is
        not deterministic across machines and job counts)."""
        data = asdict(self)
        del data["wall_seconds"]
        data["thread_clocks"] = {str(k): v
                                 for k, v in self.thread_clocks.items()}
        data["aborts_by_cause"] = dict(sorted(self.aborts_by_cause.items()))
        return data


# ----------------------------------------------------------------------
# Request execution (top-level, picklable: pool workers import this)
# ----------------------------------------------------------------------

def request_options(**options: Any) -> Tuple[Tuple[str, Any], ...]:
    """Workload-factory kwargs as the sorted tuple ``RunRequest`` wants."""
    return tuple(sorted(options.items()))


def build_workload(request: RunRequest) -> Workload:
    return make_workload(request.workload, request.scale,
                         **dict(request.options))


def run_request(request: RunRequest) -> Tuple[Workload, ParadigmResult]:
    """Build ``request``'s workload and run it on the labelled system."""
    workload = build_workload(request)
    executor_factory = executor_factory_for(workload) \
        if request.calibrated else None
    manager = ContentionManager(policy=make_policy(request.policy)) \
        if request.policy else None
    kwargs: Dict[str, Any] = {}
    if request.paradigm:
        kwargs["paradigm"] = request.paradigm
    if manager is not None:
        kwargs["manager"] = manager
    system = request.system
    if system == "sequential":
        result = run_workload(workload, request.machine,
                              paradigm=request.paradigm or "Sequential",
                              executor_factory=executor_factory)
    elif system in ("hmtx", "hmtx-nosla"):
        result = run_workload(workload, request.machine,
                              sla_enabled=(system == "hmtx"),
                              executor_factory=executor_factory, **kwargs)
    elif system.startswith("smtx-"):
        mode = ValidationMode(system.split("-", 1)[1])
        result = run_smtx(workload, request.machine, mode=mode,
                          executor_factory=executor_factory, **kwargs)
    elif system in backend_names():
        result = run_workload(workload, request.machine, backend=system,
                              executor_factory=executor_factory, **kwargs)
    else:
        raise ValueError(f"unknown system {system!r}; expected one of "
                         f"{SYSTEM_LABELS} or a backend in {backend_names()}")
    return workload, result


def _cache_accesses(result: ParadigmResult) -> Tuple[int, int]:
    """L1/L2 access totals, however the backend exposes its hierarchy."""
    hier_stats = getattr(result.system.hierarchy, "stats", None)
    if hier_stats is not None and hasattr(hier_stats, "loads"):
        return (hier_stats.loads + hier_stats.stores,
                hier_stats.bus_snoops + hier_stats.memory_fetches)
    timing = getattr(result.system, "timing", None)
    if timing is not None:
        return (timing.stats.loads + timing.stats.stores,
                timing.stats.bus_snoops)
    return 0, 0


def snapshot(request: RunRequest, workload: Workload,
             result: ParadigmResult, wall_seconds: float,
             obs_digest: Optional[Dict[str, Any]] = None) -> RunRecord:
    """Freeze one live run into a plain-data :class:`RunRecord`."""
    stats = result.system.stats
    contention = stats.contention
    exec_stats = result.extra.get("exec_stats")
    l1, l2 = _cache_accesses(result)
    correct = (workload.observed_result(result.system)
               == workload.expected_result(result.system))
    return RunRecord(
        workload=request.workload,
        system=request.system,
        scale=request.scale,
        paradigm=result.paradigm,
        cycles=result.cycles,
        recoveries=result.recoveries,
        committed=stats.committed,
        aborted=stats.aborted,
        ops_executed=result.run.ops_executed,
        correct=correct,
        hot_loop_fraction=getattr(workload, "hot_loop_fraction", 1.0),
        avg_spec_accesses_per_tx=stats.avg_spec_accesses_per_tx,
        avoided_aborts_per_tx=stats.avoided_aborts_per_tx,
        sla_fraction_of_spec_loads=stats.sla_fraction_of_spec_loads,
        avg_read_set_kb=stats.avg_read_set_kb,
        avg_write_set_kb=stats.avg_write_set_kb,
        avg_combined_set_kb=stats.avg_combined_set_kb,
        branch_fraction=exec_stats.branch_fraction if exec_stats else 0.0,
        mispredict_rate=exec_stats.mispredict_rate if exec_stats else 0.0,
        aborts_by_cause=dict(contention.by_cause),
        cause_summary=contention.cause_summary(),
        backoff_cycles=contention.backoff_cycles,
        fallback_iterations=contention.fallback_iterations,
        degraded_serial=bool(result.extra.get("degraded_serial", False)),
        serial_fallback=bool(result.extra.get("serial_fallback", False)),
        commit_process_cycles=result.extra.get("commit_process_cycles"),
        worker_cycles=result.extra.get("worker_cycles"),
        validation_mode=result.extra.get("validation_mode"),
        thread_clocks=dict(result.run.thread_clocks),
        l1_accesses=l1,
        l2_accesses=l2,
        wall_seconds=wall_seconds,
        obs_digest=obs_digest,
    )


def _pool_context():
    """Lowest-overhead multiprocessing start method for this platform.

    ``fork`` workers inherit the parent's imported modules *and* the
    pending request list (read-only, copy-on-write), so dispatch sends a
    list index instead of pickling each request — machine configs never
    cross the pipe.  ``forkserver`` still avoids re-importing the
    simulator per worker; the platform default (spawn) is the fallback.
    """
    for method in ("fork", "forkserver"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return multiprocessing.get_context()


#: Requests served by the current parallel batch, inherited read-only by
#: fork-started pool workers.  Set immediately before the pool forks and
#: cleared after it drains; never mutated while a pool is live.
_SHARED_REQUESTS: List[RunRequest] = []


def _execute_shared(index: int) -> RunRecord:
    """Pool-worker entry point: run the ``index``-th inherited request."""
    return execute_request(_SHARED_REQUESTS[index])


def observed_run(request: RunRequest):
    """Run ``request`` under a fresh obs session; returns
    ``(session, workload, result)`` with the session detached and
    finalized."""
    from ..obs.session import ObsSession  # lint-ok: RL005 (observed runs only; keeps the obs stack out of unobserved pool workers)
    session = ObsSession()
    with session.activate():
        workload, result = run_request(request)
    session.detach()
    session.finalize(result)
    return session, workload, result


def execute_request(request: RunRequest) -> RunRecord:
    """Run one request start-to-finish; the unit a pool worker executes."""
    start = time.perf_counter()
    if request.observe:
        from ..obs.profile import attribute, digest  # lint-ok: RL005 (observed runs only; keeps the obs stack out of unobserved pool workers)
        session, workload, result = observed_run(request)
        obs_digest = digest(session, attribute(session))
        return snapshot(request, workload, result,
                        time.perf_counter() - start, obs_digest=obs_digest)
    workload, result = run_request(request)
    return snapshot(request, workload, result, time.perf_counter() - start)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class SweepEngine:
    """Execute :class:`RunRequest` batches, serially or across processes.

    ``jobs <= 1`` runs in-process.  ``jobs > 1`` fans unique uncached
    requests out to a ``ProcessPoolExecutor``; results come back as plain
    :class:`RunRecord` objects and are merged **in request order** — the
    output of :meth:`run` is a deterministic function of its input list,
    independent of worker count or completion order.

    Records are cached by :meth:`RunRequest.key`, so a request repeated
    across drivers (every figure needs the sequential baselines) simulates
    once and every caller gets the *same object* back.
    """

    def __init__(self, jobs: int = 1, observe: bool = False) -> None:
        self.jobs = max(1, int(jobs))
        #: When set, every request runs with an obs session attached and
        #: its record carries the cycle-attribution digest — sweeps gain
        #: attribution without any driver changes (or reruns, via cache).
        self.observe = observe
        self._cache: Dict[Tuple, RunRecord] = {}
        #: Freshly *executed* observed runs, in execution order — the
        #: hand-off :class:`repro.obs.history.HistoryStore.append_runs`
        #: consumes.  Cache hits are not re-appended, so a driver that
        #: re-reads a record does not duplicate history lines.
        self.observed_pairs: List[Tuple[RunRequest, RunRecord]] = []
        #: Upper bound on pool workers.  More processes than CPUs cannot
        #: run concurrently — they only add spawn and timeslice overhead
        #: (the old BENCH_sweep honesty gap: ``--jobs 4`` on a 1-CPU host
        #: ran 4% *slower* than serial).  When the cap leaves a single
        #: worker, the batch runs in-process with no pool at all.
        self.worker_cap = os.cpu_count() or 1
        #: Cumulative pool-management cost (spawn, dispatch, IPC, idle
        #: tails): each pool's wall time minus its workers' mean busy
        #: time, ``wall - sum(record walls) / workers`` — perfbench's
        #: ``experiments.engine.overhead_s``.
        self.spawn_overhead_seconds = 0.0

    def run_one(self, request: RunRequest) -> RunRecord:
        return self.run([request])[0]

    def run(self, requests: Sequence[RunRequest]) -> List[RunRecord]:
        """Execute ``requests``; returns records in request order."""
        if self.observe:
            requests = [r if r.observe else replace(r, observe=True)
                        for r in requests]
        todo: List[RunRequest] = []
        seen = set()
        for request in requests:
            key = request.key()
            if key not in self._cache and key not in seen:
                seen.add(key)
                todo.append(request)
        if todo:
            if self.jobs > 1 and len(todo) > 1:
                records = self._run_pool(todo)
            else:
                records = [execute_request(r) for r in todo]
            for request, record in zip(todo, records):
                self._cache[request.key()] = record
                if record.obs_digest is not None:
                    self.observed_pairs.append((request, record))
        return [self._cache[r.key()] for r in requests]

    def _run_pool(self, todo: List[RunRequest]) -> List[RunRecord]:
        """Fan ``todo`` out to a process pool (order-preserving)."""
        workers = max(1, min(self.jobs, self.worker_cap))
        if workers == 1:
            # A one-worker pool is pure overhead; the in-process loop is
            # the same work in the same order.
            return [execute_request(r) for r in todo]
        start = time.perf_counter()
        ctx = _pool_context()
        # Batched dispatch: each worker pulls a contiguous slice of the
        # batch instead of one request per IPC round trip.
        chunksize = max(1, len(todo) // (workers * 2))
        if ctx.get_start_method() == "fork":
            # Forked workers see the request list through copy-on-write
            # memory; only indices and records cross the pipe.
            _SHARED_REQUESTS[:] = todo
            try:
                with ProcessPoolExecutor(max_workers=workers,
                                         mp_context=ctx) as pool:
                    records = list(pool.map(_execute_shared,
                                            range(len(todo)),
                                            chunksize=chunksize))
            finally:
                del _SHARED_REQUESTS[:]
        else:
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=ctx) as pool:
                records = list(pool.map(execute_request, todo,
                                        chunksize=chunksize))
        wall = time.perf_counter() - start
        self.spawn_overhead_seconds += \
            wall - sum(r.wall_seconds for r in records) / workers
        return records

    def run_spec(self, spec: SweepSpec) -> List[RunRecord]:
        return self.run(spec.requests)

    def cached(self, request: RunRequest) -> Optional[RunRecord]:
        return self._cache.get(request.key())


def scaled(spec: SweepSpec, scale: float) -> SweepSpec:
    """A copy of ``spec`` with every request rescaled."""
    return SweepSpec(spec.name,
                     tuple(replace(r, scale=scale) for r in spec.requests))
