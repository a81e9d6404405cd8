"""CPU substrate: instruction IR, branch prediction, core timing, interrupts."""

from .branch import BranchPredictor, CalibratedPredictor, GsharePredictor, PredictorStats
from .core_model import CoreExecutor, ExecStats
from .interrupts import KERNEL_REGION_BASE, InterruptInjector
from .isa import (
    AbortMTX,
    BeginMTX,
    Branch,
    CommitMTX,
    Consume,
    InitMTX,
    Load,
    Op,
    OpCosts,
    Output,
    Produce,
    SpinUntil,
    Store,
    Work,
    format_trace,
)

__all__ = [
    "AbortMTX",
    "BeginMTX",
    "Branch",
    "BranchPredictor",
    "CalibratedPredictor",
    "CommitMTX",
    "Consume",
    "CoreExecutor",
    "ExecStats",
    "GsharePredictor",
    "InitMTX",
    "InterruptInjector",
    "KERNEL_REGION_BASE",
    "Load",
    "Op",
    "OpCosts",
    "Output",
    "PredictorStats",
    "Produce",
    "SpinUntil",
    "Store",
    "Work",
    "format_trace",
]
