"""Shared building blocks for the benchmark models.

Each of the 8 evaluated benchmarks (Table 1) is modelled as a synthetic
program whose hot loop reproduces, at ~1/1000 scale, the original's

* parallelisation paradigm and stage split,
* speculative-access count and read/write-set footprint per transaction,
* branch density and misprediction rate (via calibrated predictors),
* wrong-path-load behaviour (what the SLA mechanism must absorb).

The helpers here keep the individual models small: deterministic
pseudo-randomness, address-region bookkeeping, and branch-burst emission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..cpu.branch import CalibratedPredictor
from ..cpu.core_model import CoreExecutor
from ..cpu.isa import Branch

LINE = 64
WORD = 8


class Lcg:
    """Deterministic 64-bit LCG for reproducible synthetic access streams."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``."""
        self._state = (self._state * self._MULT + self._INC) & self._MASK
        return (self._state >> 17) % bound


@dataclass(frozen=True)
class Region:
    """A named address region of the workload's layout."""

    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def word(self, index: int) -> int:
        """Address of the ``index``-th word (wraps within the region)."""
        return self.base + (index * WORD) % self.size

    def line(self, index: int) -> int:
        """Address of the ``index``-th line (wraps within the region)."""
        return self.base + (index * LINE) % self.size

    def span(self) -> Tuple[int, int]:
        return (self.base, self.end)


#: Branch ops are immutable value objects, so the two wrong-path-free
#: outcomes are shared singletons — workload loops yield them thousands of
#: times and the construction cost is pure overhead.
_BRANCH_TAKEN = Branch(taken=True)
_BRANCH_NOT_TAKEN = Branch(taken=False)


def branch_op(rng: Lcg, wrong_path: Tuple[int, ...] = ()) -> Branch:
    """One data-dependent branch op.

    Returning the op instead of yielding it lets hot workload bodies do
    ``yield branch_op(rng)`` without spinning up a subgenerator per burst.
    """
    taken = rng.next(4) != 0
    if wrong_path:
        return Branch(taken=taken, wrong_path_loads=wrong_path)
    return _BRANCH_TAKEN if taken else _BRANCH_NOT_TAKEN


def calibrated_executor_factory(mispredict_rate: float):
    """Executor factory whose predictors mispredict at the Table 1 rate."""

    def factory(system) -> CoreExecutor:
        counter = {"n": 0}

        def predictor():
            counter["n"] += 1
            return CalibratedPredictor(mispredict_rate,
                                       seed=0xFACE + 7919 * counter["n"])

        return CoreExecutor(system, predictor_factory=predictor)

    return factory


def executor_factory_for(workload) -> Optional[object]:
    """The calibrated executor factory for a benchmark model (or None)."""
    rate = getattr(workload, "mispredict_rate", None)
    if rate is None:
        return None
    return calibrated_executor_factory(rate)
