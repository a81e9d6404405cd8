"""Benchmark models: the paper's 8 evaluated programs plus teaching loops."""

from .alvinn import AlvinnWorkload
from .base import Workload
from .bzip2 import Bzip2Workload
from .common import Lcg, Region, calibrated_executor_factory, executor_factory_for
from .contended import CapacityHogWorkload, HighContentionListWorkload
from .crafty import CraftyWorkload
from .gzip import GzipWorkload
from .hmmer import HmmerWorkload
from .ispell import IspellWorkload
from .li import LiWorkload
from .linkedlist import LinkedListWorkload
from .parser import ParserWorkload
from .pipeline import PipelinedBenchmark
from .suite import (
    BENCHMARK_NAMES,
    PAPER_TABLE1,
    SMTX_COMPARABLE,
    Table1Row,
    all_benchmarks,
    make_benchmark,
    make_workload,
    workload_names,
)

__all__ = [
    "AlvinnWorkload",
    "BENCHMARK_NAMES",
    "Bzip2Workload",
    "CapacityHogWorkload",
    "CraftyWorkload",
    "HighContentionListWorkload",
    "GzipWorkload",
    "HmmerWorkload",
    "IspellWorkload",
    "Lcg",
    "LiWorkload",
    "LinkedListWorkload",
    "PAPER_TABLE1",
    "ParserWorkload",
    "PipelinedBenchmark",
    "Region",
    "SMTX_COMPARABLE",
    "Table1Row",
    "Workload",
    "all_benchmarks",
    "calibrated_executor_factory",
    "executor_factory_for",
    "make_benchmark",
    "make_workload",
    "workload_names",
]
