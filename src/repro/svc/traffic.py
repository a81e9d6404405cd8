"""Deterministic service traffic: Zipfian key skew and bursty arrivals.

Service-scale TM pathologies come from two statistical properties the
Table 1 benchmarks do not have (Alistarh et al.; Brown & Ravi):

* **key popularity skew** — a handful of hot keys absorb most of the
  traffic, so independent-looking transactions keep colliding on the
  same cache lines.  :class:`ZipfianSampler` draws key *ranks* from the
  standard Zipf(theta) popularity law over a configurable keyspace.
* **open-loop arrivals** — real requests arrive on the service's
  schedule, not the worker's: load comes in bursts, queues build while
  a worker is stuck behind a contended commit, and tail latency is born
  in exactly those queues.  :class:`BurstyArrivals` produces a
  deterministic nondecreasing arrival timetable (in simulated cycles)
  that workloads attach to requests via the :class:`~repro.cpu.isa.
  Arrive` op.

Everything here is integer-seeded through the repo's
:class:`~repro.workloads.common.Lcg` — no ``random`` module, no global
state, byte-identical streams for equal seeds (pinned by
``tests/svc/test_traffic.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import List, Tuple

from ..workloads.common import Lcg

#: Denominator for LCG-derived floats in [0, 1).  The LCG exposes 47
#: usable bits (state >> 17), and 2**47 % 2**30 == 0, so ``next(1 << 30)``
#: is exactly uniform — wider bounds would bias the draw.
_FLOAT_BITS = 1 << 30


def _uniform(rng: Lcg) -> float:
    return rng.next(_FLOAT_BITS) / _FLOAT_BITS


@lru_cache(maxsize=None)
def _zipf_cdf(n: int, theta: float) -> Tuple[float, ...]:
    """The normalised cumulative Zipf(theta) popularity table over ``n``.

    Memoised per ``(n, theta)`` for the life of the process: the table is
    a pure function of both, immutable, and costs O(n) to build, while
    every svc request builds a sampler.
    """
    cdf: List[float] = []
    running = 0.0
    for rank in range(n):
        running += (rank + 1) ** -theta
        cdf.append(running)
    return tuple(value / running for value in cdf)


class ZipfianSampler:
    """Zipf(theta)-distributed ranks over ``[0, n)``; rank 0 is hottest.

    The cumulative popularity table costs O(n) to build, once per
    distinct ``(n, theta)`` in a process, and one bisect per draw.  Each
    sampler draws from its own seeded LCG.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 1) -> None:
        if n <= 0:
            raise ValueError(f"keyspace must be positive: {n!r}")
        self._rng = Lcg(seed)
        self._cdf = _zipf_cdf(n, theta)

    def sample(self) -> int:
        """Draw one rank (0 = most popular)."""
        return bisect_left(self._cdf, _uniform(self._rng))

    def sample_many(self, count: int) -> List[int]:
        return [self.sample() for _ in range(count)]


class BurstyArrivals:
    """Deterministic open-loop arrival timetable, in simulated cycles.

    The process alternates phases: *steady* phases space requests
    ``base_gap``-ish cycles apart, *burst* phases pack them
    ``burst_gap``-ish apart, and occasionally a phase boundary inserts
    an ``idle_gap`` lull (the inter-burst silence that lets queues
    drain and makes the next burst hurt).  All phase lengths and gaps
    are LCG-drawn integers, so the schedule is a pure function of the
    seed.  A phase lasts about ``burst_len`` or ``steady_len`` requests.
    """

    burst_len = 10
    steady_len = 12

    def __init__(self, seed: int = 1, base_gap: int = 64, burst_gap: int = 8,
                 idle_gap: int = 600) -> None:
        self.seed = seed
        self.base_gap = max(1, base_gap)
        self.burst_gap = max(1, burst_gap)
        self.idle_gap = max(0, idle_gap)

    def gaps(self, count: int) -> List[int]:
        """``count`` inter-arrival gaps (the schedule's first differences)."""
        rng = Lcg(self.seed)
        out: List[int] = []
        remaining = 0
        in_burst = False
        while len(out) < count:
            if remaining == 0:
                in_burst = rng.next(4) == 0  # one phase in four bursts
                span = self.burst_len if in_burst else self.steady_len
                remaining = span // 2 + rng.next(span) + 1
                if self.idle_gap and rng.next(8) == 0:
                    # A lull before the phase: half-to-full idle_gap.
                    out.append(self.idle_gap // 2
                               + rng.next(self.idle_gap // 2 + 1))
                    if len(out) == count:
                        break
            gap = self.burst_gap if in_burst else self.base_gap
            out.append(gap // 2 + rng.next(gap + 1))
            remaining -= 1
        return out

    def schedule(self, count: int) -> List[int]:
        """``count`` nondecreasing arrival timestamps starting at 0."""
        now = 0
        out: List[int] = []
        for gap in self.gaps(count):
            now += gap
            out.append(now)
        return out
