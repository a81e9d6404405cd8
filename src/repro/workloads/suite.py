"""The workload table and the evaluated benchmark suite.

``make_workload(name, scale, **options)`` builds any workload by name —
the 8 Table 1 benchmark models, the adversarial contention
microbenchmarks, and the :mod:`repro.svc` service workloads all share
this one lookup.  :data:`BENCHMARKS` and :data:`EXTRA_WORKLOADS` are the
literal name tables; the extras are lazy ``(module, attr)`` entries, so
importing the suite pulls in no optional subsystem.  A new workload is
one more entry, and then works everywhere a workload name is accepted:
the sweep engine, ``python -m repro analyze``, and the svc CLI.

``make_benchmark(name, scale)`` is the Table 1 view — it accepts only
the 8 evaluated benchmarks (``scale`` grows or shrinks iteration counts;
1.0 = the default simulation size; the paper's native sizes are ~1000x
larger — see EXPERIMENTS.md).

``PAPER_TABLE1`` records the published per-benchmark statistics so the
reproduction reports paper-vs-measured side by side.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Dict, Tuple, Type

from .alvinn import AlvinnWorkload
from .base import Workload
from .bzip2 import Bzip2Workload
from .crafty import CraftyWorkload
from .gzip import GzipWorkload
from .hmmer import HmmerWorkload
from .ispell import IspellWorkload
from .li import LiWorkload
from .parser import ParserWorkload


@dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table 1."""

    benchmark: str
    paradigm: str
    hot_loop_pct: float
    spec_accesses_per_tx: float
    aborts_avoided_per_tx: float
    sla_pct_of_loads: float
    branch_pct: float
    mispredict_pct: float


PAPER_TABLE1: Dict[str, Table1Row] = {
    "052.alvinn": Table1Row("052.alvinn", "DOALL", 85.5, 2_290_717, 0.158,
                            1.28, 11.5, 0.245),
    "130.li": Table1Row("130.li", "PS-DSWP", 100.0, 181_844_120, 22.5,
                        4.21, 20.5, 3.65),
    "164.gzip": Table1Row("164.gzip", "PS-DSWP", 98.4, 6_248_356, 3.32,
                          7.08, 14.6, 2.68),
    "186.crafty": Table1Row("186.crafty", "PS-DSWP", 99.5, 4_498_903, 1.50,
                            4.92, 13.1, 5.59),
    "197.parser": Table1Row("197.parser", "PS-DSWP", 100.0, 24_733_144, 24.6,
                            2.56, 19.2, 1.05),
    "256.bzip2": Table1Row("256.bzip2", "PS-DSWP", 98.5, 131_271_380, 17.3,
                           6.04, 12.6, 1.33),
    "456.hmmer": Table1Row("456.hmmer", "PS-DSWP", 100.0, 1_709_195, 0.187,
                           1.40, 4.83, 1.03),
    "ispell": Table1Row("ispell", "PS-DSWP", 86.5, 43_752, 0.028,
                        13.0, 16.6, 2.82),
}

#: Paper Figure 8: benchmarks with a published SMTX comparison point.
SMTX_COMPARABLE = ("052.alvinn", "130.li", "164.gzip", "197.parser",
                   "256.bzip2", "456.hmmer")


def _scaled(value: int, scale: float) -> int:
    return max(2, round(value * scale))


# ----------------------------------------------------------------------
# The workload tables
# ----------------------------------------------------------------------

#: Table 1 benchmark → ``(model, iterations at scale 1.0)``.
BENCHMARKS: Dict[str, Tuple[Type[Workload], int]] = {
    "052.alvinn": (AlvinnWorkload, 32),
    "130.li": (LiWorkload, 8),
    "164.gzip": (GzipWorkload, 20),
    "186.crafty": (CraftyWorkload, 24),
    "197.parser": (ParserWorkload, 14),
    "256.bzip2": (Bzip2Workload, 8),
    "456.hmmer": (HmmerWorkload, 40),
    "ispell": (IspellWorkload, 64),
}

BENCHMARK_NAMES = tuple(BENCHMARKS)

#: Every other workload → ``(module, attr)`` of its
#: ``factory(scale, **options) -> Workload``, imported on first use.
EXTRA_WORKLOADS: Dict[str, Tuple[str, str]] = {
    "contended-list": ("repro.workloads.contended",
                       "contended_list_workload"),
    "capacity-hog": ("repro.workloads.contended", "capacity_hog_workload"),
    "svc-kv": ("repro.svc.kvstore", "kv_workload"),
    "svc-kv-read": ("repro.svc.kvstore", "kv_read_workload"),
    "svc-oltp": ("repro.svc.kvstore", "oltp_workload"),
    "svc-adversary": ("repro.svc.adversary", "adversary_workload"),
}

#: Names starting with this prefix resolve to serialized adversarial
#: survivors: ``svc-survivor:<path to survivor JSON>``.
SURVIVOR_PREFIX = "svc-survivor:"


def _adversary():
    from ..svc import adversary  # lint-ok: RL005 (survivor replay only; keeps the svc subsystem out of suite imports)
    return adversary


def workload_label(name: str) -> str:
    """``name`` as reports and the history store key it.

    A survivor replay is labelled by the name recorded in its file
    (``svc-survivor:<name>``, read through the validated
    :func:`~repro.svc.adversary.load_survivor`), so one survivor keys
    alike whatever path spelling reached it; other names are returned as
    given.
    """
    if not name.startswith(SURVIVOR_PREFIX):
        return name
    path = name[len(SURVIVOR_PREFIX):]
    return SURVIVOR_PREFIX + _adversary().load_survivor(path)["name"]


def workload_names() -> Tuple[str, ...]:
    """Every workload name (sorted; survivors excluded)."""
    return tuple(sorted(BENCHMARKS.keys() | EXTRA_WORKLOADS.keys()))


def make_workload(name: str, scale: float = 1.0, **options) -> Workload:
    """Instantiate any workload at the given size scale.

    ``options`` are factory keyword arguments (e.g. ``seed=`` for the
    svc family); factories that take none reject extras loudly.
    """
    if name.startswith(SURVIVOR_PREFIX):
        return _adversary().survivor_workload(name[len(SURVIVOR_PREFIX):],
                                              **options)
    if name in BENCHMARKS:
        model, iterations = BENCHMARKS[name]
        return model(iterations=_scaled(iterations, scale), **options)
    if name not in EXTRA_WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {workload_names()}")
    module_name, attr = EXTRA_WORKLOADS[name]
    factory = getattr(importlib.import_module(module_name), attr)
    return factory(scale, **options)


def make_benchmark(name: str, scale: float = 1.0) -> Workload:
    """Instantiate one Table 1 benchmark model at the given size scale."""
    if name not in BENCHMARK_NAMES:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"choose from {sorted(BENCHMARK_NAMES)}")
    return make_workload(name, scale)


def all_benchmarks(scale: float = 1.0) -> Dict[str, Workload]:
    """Fresh instances of every benchmark model."""
    return {name: make_benchmark(name, scale) for name in BENCHMARK_NAMES}
