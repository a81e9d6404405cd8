"""Shared helpers for the experiment drivers: runs, tables, geomeans.

:class:`BenchmarkRunner` is the drivers' facade over the sweep engine
(:mod:`repro.experiments.engine`): it names runs by benchmark and system
label (``run("130.li", "smtx-minimal")``, labels from
:data:`~repro.experiments.engine.SYSTEMS`) and returns
plain :class:`~repro.experiments.engine.RunRecord` snapshots, cached so
the figures share baselines.  Parallelism is the engine's business —
construct the runner with ``jobs=N`` and batch work via
:meth:`BenchmarkRunner.prefetch`.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from ..core.config import MachineConfig
from .engine import RunRecord, RunRequest, SweepEngine


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's summary statistic).

    Raises ``ValueError`` on an empty or non-positive input: every caller
    is summarising a benchmark set, and an empty set means the sweep lost
    rows — returning 0.0 here used to let that bug masquerade as a
    plausible "no speedup" figure.
    """
    values = [v for v in values]
    if not values:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Plain-text table (all experiment drivers print through this)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


class BenchmarkRunner:
    """Runs benchmark models under each system, caching per-config results.

    One Figure 8 sweep needs sequential + HMTX + SMTX runs of the same
    benchmark; Table 1, Figure 9 and Table 3 reuse those runs, so the
    drivers share a runner.  Execution happens in the underlying
    :class:`~repro.experiments.engine.SweepEngine`; the cache key covers
    workload name, system label, scale, *and* the machine-config digest,
    so two runners sharing one engine at different scales or configs
    never collide (the old (name, system) key did).
    """

    def __init__(self, scale: float = 1.0,
                 config: Optional[MachineConfig] = None,
                 jobs: int = 1,
                 engine: Optional[SweepEngine] = None) -> None:
        self.scale = scale
        self.config = config
        self.engine = engine or SweepEngine(jobs=jobs)

    def request(self, name: str, system: str) -> RunRequest:
        """The engine request for the (benchmark, system-label) pair."""
        return RunRequest(workload=name, system=system, scale=self.scale,
                          machine=self.config)

    def prefetch(self, requests: Sequence[RunRequest]) -> None:
        """Execute a batch up front (in parallel when the engine has
        ``jobs > 1``); later per-name accessors hit the cache."""
        self.engine.run(requests)

    def run(self, name: str, system: str) -> RunRecord:
        return self.engine.run_one(self.request(name, system))

    def speedup(self, name: str, system: str) -> float:
        """Hot-loop speedup of ``system`` over sequential for ``name``."""
        seq = self.run(name, "sequential")
        return seq.cycles / self.run(name, system).cycles

    def verify(self, name: str, system: str) -> bool:
        """Did the (name, system) run preserve sequential semantics?"""
        return self.run(name, system).correct

    def records(self) -> List[RunRecord]:
        """Every cached record, in execution order (for reports)."""
        return list(self.engine._cache.values())
