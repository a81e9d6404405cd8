"""The svc tail-latency artifact: per-backend quantiles from obs data.

Tail latency is *the* service-level metric the open-loop KV workloads
exist to expose: a p99 commit latency dominated by queueing behind a
contended commit is invisible in makespan comparisons.  This module
turns one sweep over the TM backends into that artifact:

1. :func:`latency_spec` builds observed :class:`RunRequest`\\ s (one per
   backend) for an svc workload — plain engine requests, so ``--jobs N``
   fans them out across processes and the result is byte-identical to a
   serial run (the engine's merge-order contract).
2. Each record's ``obs_digest["histograms"]`` carries the
   ``svc_queue_wait_cycles`` / ``svc_commit_latency_cycles`` series the
   observation layer populated from :class:`~repro.cpu.isa.Arrive` ops
   and committed transactions; :meth:`Histogram.from_cumulative`
   rebuilds them from the plain-data digest.
3. :func:`latency_report` renders p50/p90/p99/p999 per backend —
   JSON (schema ``hmtx-svc-latency/1``, sorted keys, no wall-clock) or
   a text table.

Commit latency here is *sojourn time* — commit timestamp minus the
request's open-loop arrival — measured only on the attempt that
committed; queue wait is the scheduler-charged lateness of the
``Arrive`` op itself.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.engine import (
    RunRequest,
    SweepEngine,
    SweepSpec,
    request_options,
)
from ..experiments.reporting import format_table
from ..obs.profile import load_digest
from ..obs.registry import Histogram

LATENCY_SCHEMA = "hmtx-svc-latency/1"

#: Default backend lineup: the hardware design, the software baseline,
#: and the perfect-knowledge oracle (same trio as the backend table).
DEFAULT_SYSTEMS: Tuple[str, ...] = ("hmtx", "smtx", "oracle")

#: Reported quantiles (fraction, column label).
QUANTILES: Tuple[Tuple[float, str], ...] = (
    (0.5, "p50"), (0.9, "p90"), (0.99, "p99"), (0.999, "p999"))

_SERIES = (("commit_latency", "svc_commit_latency_cycles"),
           ("queue_wait", "svc_queue_wait_cycles"))


def latency_spec(workload: str = "svc-kv", scale: float = 1.0,
                 systems: Sequence[str] = DEFAULT_SYSTEMS,
                 seed: int = 42) -> SweepSpec:
    """One observed run per backend over the same seeded workload."""
    requests = tuple(
        RunRequest(workload=workload, system=system, scale=scale,
                   paradigm="DOALL", observe=True,
                   options=request_options(seed=seed))
        for system in systems)
    return SweepSpec(name=f"svc-latency:{workload}", requests=requests)


def _series_quantiles(digest: Optional[Dict[str, Any]],
                      series: str) -> Dict[str, Any]:
    histograms = load_digest(digest)["histograms"] if digest else {}
    snap = histograms.get(series)
    if snap is None:
        return {"count": 0,
                **{label: 0.0 for _, label in QUANTILES}}
    hist = Histogram.from_cumulative(snap)
    out: Dict[str, Any] = {"count": hist.count,
                           "mean": round(hist.mean, 2),
                           "max": hist.max_value}
    for q, label in QUANTILES:
        out[label] = round(hist.quantile(q), 1)
    return out


def latency_report(workload: str = "svc-kv", scale: float = 1.0,
                   systems: Sequence[str] = DEFAULT_SYSTEMS,
                   seed: int = 42, jobs: int = 1) -> Dict[str, Any]:
    """Run the sweep and distill the tail-latency artifact (plain data)."""
    spec = latency_spec(workload=workload, scale=scale, systems=systems,
                        seed=seed)
    records = SweepEngine(jobs=jobs).run_spec(spec)
    rows: List[Dict[str, Any]] = []
    for record in records:
        row: Dict[str, Any] = {
            "system": record.system,
            "cycles": record.cycles,
            "committed": record.committed,
            "aborted": record.aborted,
            "correct": record.correct,
        }
        for key, series in _SERIES:
            row[key] = _series_quantiles(record.obs_digest, series)
        rows.append(row)
    return {
        "schema": LATENCY_SCHEMA,
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "systems": list(systems),
        "rows": rows,
    }


def render_text(report: Dict[str, Any]) -> str:
    """The human-readable artifact: one quantile table per series."""
    blocks: List[str] = []
    for key, _series in _SERIES:
        headers = ["system", "count"] + [label for _, label in QUANTILES] \
            + ["max", "cycles", "correct"]
        rows = []
        for row in report["rows"]:
            dist = row[key]
            rows.append([row["system"], dist["count"]]
                        + [dist[label] for _, label in QUANTILES]
                        + [dist.get("max", 0), row["cycles"],
                           row["correct"]])
        title = (f"svc {key.replace('_', ' ')} (cycles) — "
                 f"{report['workload']} @ scale {report['scale']}, "
                 f"seed {report['seed']}")
        blocks.append(format_table(headers, rows, title=title))
    return "\n\n".join(blocks)


def render_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
