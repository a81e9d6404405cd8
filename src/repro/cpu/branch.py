"""Branch predictor models.

Branch misprediction matters to HMTX because wrong-path loads that already
executed would, naively, mark cache lines with their VID and later trigger
*false* misspeculations (section 5.1).  The evaluation's benchmarks have
mispredict rates between 0.245% and 5.59% (Table 1), so the predictor model
must produce a controllable, repeatable mispredict stream.

Two models are provided:

* :class:`GsharePredictor` — a real gshare (global history XOR PC indexing a
  2-bit counter table).  Used by protocol-level tests to get organic
  mispredict behaviour.
* :class:`CalibratedPredictor` — mispredicts at a configured rate using a
  deterministic LCG stream.  Used by the workload models so each benchmark
  reproduces its Table 1 mispredict rate exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple


@dataclass
class PredictorStats:
    predictions: int = 0
    mispredictions: int = 0

    @property
    def mispredict_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions


class BranchPredictor:
    """Interface: :meth:`predict` returns True when the branch mispredicts."""

    def __init__(self) -> None:
        self.stats = PredictorStats()

    def predict(self, pc: int, taken: bool) -> bool:
        raise NotImplementedError


class GsharePredictor(BranchPredictor):
    """Classic gshare: global-history XOR PC indexes 2-bit counters."""

    TABLE_BITS = 12
    HISTORY_BITS = 12

    def __init__(self) -> None:
        super().__init__()
        self._table = [2] * (1 << self.TABLE_BITS)  # weakly taken
        self._history = 0
        self._history_mask = (1 << self.HISTORY_BITS) - 1

    def predict(self, pc: int, taken: bool) -> bool:
        index = ((pc >> 2) ^ self._history) & ((1 << self.TABLE_BITS) - 1)
        counter = self._table[index]
        predicted_taken = counter >= 2
        mispredicted = predicted_taken != taken
        # Update the 2-bit saturating counter and global history.
        if taken:
            self._table[index] = min(3, counter + 1)
        else:
            self._table[index] = max(0, counter - 1)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        self.stats.predictions += 1
        if mispredicted:
            self.stats.mispredictions += 1
        return mispredicted


class CalibratedPredictor(BranchPredictor):
    """Mispredicts at a fixed rate, deterministically.

    A 64-bit LCG drives the decision so runs are reproducible and the
    realised rate converges to ``rate`` (used to dial in each benchmark's
    Table 1 mispredict rate).

    A branch mispredicts when the state's top 53 bits, read as a fraction
    of one, fall below ``rate``: ``(state >> 11) / 2**53 < rate``.  The
    integer test ``state < threshold`` with ``threshold = ceil(rate *
    2**53) << 11`` decides the same for every state, because ``rate *
    2**53`` is exact in binary floating point.
    """

    _LCG_MULT = 6364136223846793005
    _LCG_INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, rate: float, seed: int = 0xC0FFEE) -> None:
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError("mispredict rate must be in [0, 1]")
        self._state = seed & self._MASK
        #: A state below this mispredicts (see the class docstring).
        self.threshold = math.ceil(rate * (1 << 53)) << 11

    def predict(self, pc: int, taken: bool) -> bool:
        state = (self._state * self._LCG_MULT + self._LCG_INC) & self._MASK
        self._state = state
        mispredicted = state < self.threshold
        stats = self.stats
        stats.predictions += 1
        if mispredicted:
            stats.mispredictions += 1
        return mispredicted

    def predict_many(self, count: int) -> int:
        """``count`` predictions at once; returns how many mispredict.

        The same stream as ``count`` calls of :meth:`predict`, computed in
        big-integer lanes (:func:`_lcg_lanes`): lane ``k`` of one product
        is state ``k``, and adding ``2**64 - threshold`` sets its bit 64,
        the only bit of its byte 8, iff that state predicts correctly.
        """
        mult, inc, low, add = _lcg_lanes(count, self.threshold)
        lanes = self._state * mult + inc
        self._state = (lanes >> (136 * (count - 1))) & self._MASK
        right = ((lanes & low) + add).to_bytes(17 * count, "little")
        wrong = count - right[8::17].count(1)
        self.stats.predictions += count
        self.stats.mispredictions += wrong
        return wrong


@functools.lru_cache(maxsize=32)
def _lcg_lanes(size: int, threshold: int) -> Tuple[int, ...]:
    """For ``size`` LCG steps, 136-bit lanes (room for a 128-bit product
    plus a 64-bit increment) holding, in lane ``k``: the multiplier and
    the increment that take a state ``k + 1`` steps ahead, the low-64-bit
    mask, and ``2**64 - threshold``.

    Built by doubling, in O(log size) big-integer operations.  Lane ``k``
    holds the map ``s -> A*s + C`` of ``k + 1`` steps, and maps compose
    as ``A[j+m] = A[m]*A[j]``, ``C[j+m] = A[m]*C[j] + C[m]`` (mod
    ``2**64``); so a table of ``m`` lanes times ``A[m]``, plus ``C[m]``
    in every lane, is the next ``m`` lanes.  Each product stays below
    ``2**129`` and never carries into the next lane.
    """
    cls = CalibratedPredictor
    mask = cls._MASK
    mult, inc, ones, width = cls._LCG_MULT, cls._LCG_INC, 1, 1
    step_mult, step_inc = mult, inc  # the map of ``width`` steps
    while width < size:
        shift, low = 136 * width, mask * ones
        mult |= (mult * step_mult & low) << shift
        inc |= ((inc * step_mult + step_inc * ones) & low) << shift
        ones |= ones << shift
        step_mult, step_inc = (step_mult * step_mult & mask,
                               (step_mult * step_inc + step_inc) & mask)
        width *= 2
    keep = (1 << 136 * size) - 1
    ones &= keep
    return mult & keep, inc & keep, mask * ones, (mask + 1 - threshold) * ones
