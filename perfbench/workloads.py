"""The benchmark's workloads: request batches and their end-to-end metrics.

Every workload is a batch of sweep-engine :class:`RunRequest` values, run
exactly the way the repository's own drivers run them (``fig8_spec``,
``contention_spec``, the observed svc requests of ``repro svc`` /
``repro scaling``, and the ``all --quick`` request set).  The reasons for
each choice and the seed handling are recorded in ``layers.json``.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.contention_sweep import contention_spec
from repro.experiments.engine import (
    RunRecord,
    RunRequest,
    config_digest,
    request_options,
)
from repro.experiments.fig2_smtx_rwset import fig2_spec
from repro.experiments.fig8_speedup import fig8_spec
from repro.experiments.fig9_setsizes import fig9_spec
from repro.experiments.reporting import BenchmarkRunner
from repro.experiments.scaling_sweep import scaling_machine
from repro.experiments.table1_stats import table1_spec
from repro.experiments.table3_power import table3_spec
from repro.obs.profile import load_digest
from repro.obs.registry import Histogram

#: Contention sweep size: scale 4 makes the capacity and conflict storms
#: long enough that one batch takes about 1.5 s.
CONTENTION_SCALE = 4.0
#: ``python -m repro all --quick`` scale.
QUICK_SCALE = 0.25
#: svc workloads and size.  The timed batch runs a fixed panel of seeds:
#: one svc seed alone swings host time by 10x (spin storms after an abort
#: hit some seeds and not others), so a batch keyed on ``--seed`` alone
#: could not be compared across runs.  ``--seed`` drives the held-out
#: pair instead, which every run checks for correctness and determinism.
SVC_WORKLOADS = ("svc-kv", "svc-oltp")
SVC_SCALE = 0.5
SVC_PANEL_SEEDS = tuple(range(1, 9))
SVC_MACHINE = "2s8c"


def _fig8(seed: int) -> List[RunRequest]:
    return list(fig8_spec(BenchmarkRunner(scale=1.0)).requests)


def _sequential_baselines(requests: Sequence[RunRequest]) -> List[RunRequest]:
    """One sequential run per distinct (workload, machine, options) input."""
    seen: Dict[Tuple, RunRequest] = {}
    for r in requests:
        baseline = RunRequest(workload=r.workload, system="sequential",
                              scale=r.scale, machine=r.machine,
                              options=r.options)
        seen.setdefault(baseline.key(), baseline)
    return list(seen.values())


def _contention(seed: int) -> List[RunRequest]:
    requests = list(contention_spec(CONTENTION_SCALE).requests)
    return _sequential_baselines(requests) + requests


def svc_requests(seeds: Sequence[int]) -> List[RunRequest]:
    """Observed HMTX svc runs (plus sequential baselines) for ``seeds``.

    ``smtx-minimal`` and ``oracle`` stay off: both return wrong results
    on svc inputs by design (layers.json, ``excluded_systems``).
    """
    machine = scaling_machine(SVC_MACHINE)
    hmtx = [RunRequest(workload=name, system="hmtx", scale=SVC_SCALE,
                       machine=machine, observe=True,
                       options=request_options(seed=seed))
            for seed in seeds for name in SVC_WORKLOADS]
    return _sequential_baselines(hmtx) + hmtx


def _svc(seed: int) -> List[RunRequest]:
    return svc_requests(SVC_PANEL_SEEDS)


def _sweep(seed: int) -> List[RunRequest]:
    """The ``all --quick`` request set, in the CLI's prefetch order."""
    runner = BenchmarkRunner(scale=QUICK_SCALE)
    requests = list(contention_spec(QUICK_SCALE).requests)
    for spec in (fig2_spec, fig8_spec, fig9_spec, table1_spec, table3_spec):
        requests.extend(spec(runner).requests)
    return requests


@dataclass(frozen=True)
class Workload:
    name: str
    #: Timed batch for a seed (seed-free workloads ignore it).
    requests: Callable[[int], List[RunRequest]]
    #: Sweep-engine worker processes for the timed batch.
    jobs: int = 1
    #: Runs driven by ``--seed`` outside the timed batch, checked only.
    held_out: Optional[Callable[[int], List[RunRequest]]] = None
    #: Modules the batch imports lazily; set-up imports them up front.
    stacks: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    "fig8": Workload("fig8", _fig8, stacks=("repro.smtx",)),
    "contention": Workload("contention", _contention,
                           stacks=("repro.txctl",)),
    "svc": Workload("svc", _svc,
                    held_out=lambda seed: svc_requests((seed,)),
                    stacks=("repro.svc.kvstore", "repro.obs.session",
                            "repro.obs.profile")),
    "sweep": Workload("sweep", _sweep, jobs=os.cpu_count() or 1,
                      stacks=("repro.smtx",)),
}


def prepare(workload: Workload, seed: int) -> List[RunRequest]:
    """Everything set-up does before the first request can be issued."""
    for module in workload.stacks:
        importlib.import_module(module)
    return workload.requests(seed)


def unique_records(requests: Sequence[RunRequest],
                   records: Sequence[RunRecord]
                   ) -> List[Tuple[RunRequest, RunRecord]]:
    """(request, record) pairs with engine-deduplicated requests dropped."""
    seen = set()
    out = []
    for request, record in zip(requests, records):
        if request.key() not in seen:
            seen.add(request.key())
            out.append((request, record))
    return out


def _input_key(request: RunRequest) -> Tuple:
    return (request.workload, request.scale, request.options,
            config_digest(request.machine))


def speedup_geomean(pairs: Sequence[Tuple[RunRequest, RunRecord]]) -> float:
    """Geomean of sequential/HMTX cycles over every HMTX run that has a
    sequential run of the same input in the batch."""
    baseline = {_input_key(q): r.cycles for q, r in pairs
                if q.system == "sequential"}
    ratios = [baseline[_input_key(q)] / r.cycles for q, r in pairs
              if q.system == "hmtx" and _input_key(q) in baseline]
    return math.exp(sum(math.log(x) for x in ratios) / len(ratios))


def _pooled_svc_latency(records: Sequence[RunRecord]) -> Optional[Histogram]:
    pooled: Optional[Histogram] = None
    for record in records:
        if record.obs_digest is None:
            continue
        snap = load_digest(record.obs_digest)["histograms"].get(
            "svc_commit_latency_cycles")
        if snap is None:
            continue
        hist = Histogram.from_cumulative(snap)
        if pooled is None:
            pooled = hist
            continue
        pooled.counts = [a + b for a, b in zip(pooled.counts, hist.counts)]
        pooled.overflow += hist.overflow
        pooled.count += hist.count
        pooled.total += hist.total
        pooled.max_value = max(pooled.max_value, hist.max_value)
    return pooled


def latency_quantiles(records: Sequence[RunRecord]) -> Tuple[float, float]:
    """(p50, p90) of simulated request sojourn, in cycles.

    svc requests arrive on an open-loop schedule; their sojourn (arrival
    to commit) is the obs digest's ``svc_commit_latency_cycles``
    histogram, pooled over the batch.  A batch request arrives at cycle 0
    and commits when its run ends, so its sojourn is the run's makespan.
    """
    pooled = _pooled_svc_latency(records)
    if pooled is not None:
        return pooled.quantile(0.5), pooled.quantile(0.9)
    cycles = [r.cycles for r in records]
    return (statistics.median(cycles),
            statistics.quantiles(cycles, n=10, method="inclusive")[8])


def simulated_metrics(requests: Sequence[RunRequest],
                      records: Sequence[RunRecord]) -> Dict[str, float]:
    """Simulated-time end-to-end metrics (repeat exactly for fixed code)."""
    pairs = unique_records(requests, records)
    unique = [r for _, r in pairs]
    p50, p90 = latency_quantiles(unique)
    return {
        "sim_cycles": sum(r.cycles for r in unique),
        "hmtx_speedup_geomean": speedup_geomean(pairs),
        "commit_latency_p50_cycles": p50,
        "commit_latency_p90_cycles": p90,
    }
