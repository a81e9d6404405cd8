"""Transactional KV-store / OLTP workload family (service-scale traffic).

Each request is one transaction against a shared key table: a read-only
point lookup, a blind write, a read-modify-write, or an OLTP-style
transfer touching multiple keys.  Keys are drawn from a Zipfian
popularity law over a large keyspace (10^5 keys at scale 1.0), so hot
keys collide across concurrent transactions the way real caches and
counters do; requests carry open-loop arrival timestamps from
:class:`~repro.svc.traffic.BurstyArrivals`, delivered to the scheduler
through the :class:`~repro.cpu.isa.Arrive` op, so workers experience
*queueing* under bursts rather than closed-loop lockstep.

Every transaction's plan (arrival, kind, keys, operands) is precomputed
at construction from the seed; ``expected_result`` replays the plans in
iteration order against a plain dict, which is exactly the sequential
semantics the in-order DOALL commit protocol must preserve — the sweep
engine's correctness check compares it against committed memory.

Factories in the ``repro.workloads`` table:

* ``svc-kv``       — 60/25/15 read/write/RMW point operations
* ``svc-kv-read``  — 90/5/5 read-heavy cache-style traffic
* ``svc-oltp``     — transfer-heavy multi-key transactions
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from ..cpu.isa import Arrive, Branch, Load, Store, Work
from ..workloads.base import Fragment, Workload
from ..workloads.common import LINE, Lcg
from .traffic import BurstyArrivals, ZipfianSampler

_MASK = 0xFFFFFFFF
#: One cache line per key (no intra-line false sharing between keys).
_KEY_REGION = 0x1000_0000
_OUT_REGION = 0x0800_0000

#: Transaction kinds, in mix order: (read%, write%, rmw%, transfer%).
_KINDS = ("read", "write", "rmw", "transfer")


@dataclass(frozen=True)
class TxPlan:
    """One precomputed request: when it arrives and what it touches."""

    arrival: int
    kind: str
    #: ``(op, key, operand)`` triples; op is "read", "write" (store
    #: ``operand``) or "add" (RMW: read, add ``operand`` mod 2^32, store).
    ops: Tuple[Tuple[str, int, int], ...]
    think: int
    taken: bool


def _initial(key: int) -> int:
    """Deterministic pre-loop value of ``key`` (written by setup)."""
    return (key * 2654435761 + 0x9E37) & _MASK


class KVStoreWorkload(Workload):
    """Zipf-skewed transactional KV traffic with open-loop arrivals."""

    paradigm = "DOALL"
    #: Branch misprediction rate for the calibrated executor (service
    #: dispatch loops are branchy but predictable).
    mispredict_rate = 0.02

    def __init__(self, name: str = "svc-kv", requests: int = 96,
                 keys: int = 100_000, theta: float = 0.99, seed: int = 42,
                 mix: Tuple[int, int, int, int] = (60, 25, 15, 0),
                 ops_per_tx: int = 3, think_cycles: int = 6,
                 base_gap: int = 320, burst_gap: int = 16,
                 idle_gap: int = 1600) -> None:
        if sum(mix) != 100:
            raise ValueError(f"tx mix must sum to 100: {mix!r}")
        self.name = name
        self.iterations = requests
        self.keys = keys
        self.seed = seed
        self.mix = tuple(mix)
        self.ops_per_tx = ops_per_tx
        self.think_cycles = think_cycles
        sampler = ZipfianSampler(keys, theta=theta, seed=seed)
        arrivals = BurstyArrivals(seed ^ 0xA771_7A1, base_gap=base_gap,
                                  burst_gap=burst_gap,
                                  idle_gap=idle_gap).schedule(requests)
        rng = Lcg((seed << 1) ^ 0xBEEF)
        self._plans: List[TxPlan] = [
            self._plan(i, arrivals[i], sampler, rng)
            for i in range(requests)]
        self._touched: Set[int] = {key for plan in self._plans
                                   for _, key, _ in plan.ops}

    # ------------------------------------------------------------------
    # Plan generation (construction-time, pure function of the seed)
    # ------------------------------------------------------------------

    def _pick_kind(self, rng: Lcg) -> str:
        draw = rng.next(100)
        running = 0
        for share, kind in zip(self.mix, _KINDS):
            running += share
            if draw < running:
                return kind
        return _KINDS[-1]

    def _plan(self, i: int, arrival: int, sampler: ZipfianSampler,
              rng: Lcg) -> TxPlan:
        kind = self._pick_kind(rng)
        ops: List[Tuple[str, int, int]] = []
        if kind == "transfer":
            src = sampler.sample()
            dst = sampler.sample()
            if dst == src:
                dst = (src + 1) % self.keys
            amount = rng.next(97) + 1
            ops.append(("read", sampler.sample(), 0))
            ops.append(("add", src, (-amount) & _MASK))
            ops.append(("add", dst, amount))
        else:
            for _ in range(self.ops_per_tx):
                key = sampler.sample()
                if kind == "read":
                    ops.append(("read", key, 0))
                elif kind == "write":
                    ops.append(("write", key, rng.next(1 << 30)))
                else:
                    ops.append(("add", key, rng.next(255) + 1))
        return TxPlan(arrival=arrival, kind=kind, ops=tuple(ops),
                      think=self.think_cycles, taken=rng.next(2) == 0)

    # ------------------------------------------------------------------
    # Addressing / memory setup
    # ------------------------------------------------------------------

    def _key_addr(self, key: int) -> int:
        return _KEY_REGION + key * LINE

    def _out_addr(self, i: int) -> int:
        return _OUT_REGION + i * LINE

    def setup(self, system) -> None:
        memory = system.hierarchy.memory
        for key in sorted(self._touched):
            memory.write_word(self._key_addr(key), _initial(key))
        for i in range(self.iterations):
            memory.write_word(self._out_addr(i), 0)

    # ------------------------------------------------------------------
    # Loop-body fragments
    # ------------------------------------------------------------------

    def _body(self, i: int) -> Fragment:
        plan = self._plans[i]
        # Open-loop arrival: wait until the request exists (or collect
        # the queue wait the scheduler already charged us with).
        yield Arrive(plan.arrival)
        acc = i & _MASK
        for op, key, operand in plan.ops:
            addr = self._key_addr(key)
            if op == "read":
                value = yield Load(addr)
            elif op == "write":
                value = operand
                yield Store(addr, value)
            else:  # add (read-modify-write)
                current = yield Load(addr)
                yield Work(1)
                value = (current + operand) & _MASK
                yield Store(addr, value)
            acc = (acc * 31 + value) & _MASK
            if plan.think:
                yield Work(plan.think)
        yield Branch(taken=plan.taken, count=2)
        yield Store(self._out_addr(i), acc)

    def sequential_iteration(self, i: int, carry: Any) -> Fragment:
        yield from self._body(i)
        return None

    def doall_iteration(self, i: int) -> Fragment:
        yield from self._body(i)

    # ------------------------------------------------------------------
    # Validation: sequential replay vs committed memory
    # ------------------------------------------------------------------

    def _fold(self, total: int, value: int) -> int:
        return (total * 131 + value) & _MASK

    def expected_result(self, system) -> int:
        table: Dict[int, int] = {key: _initial(key)
                                 for key in self._touched}
        total = 0
        for i, plan in enumerate(self._plans):
            acc = i & _MASK
            for op, key, operand in plan.ops:
                if op == "read":
                    value = table[key]
                elif op == "write":
                    value = operand
                    table[key] = value
                else:
                    value = (table[key] + operand) & _MASK
                    table[key] = value
                acc = (acc * 31 + value) & _MASK
            total = self._fold(total, acc)
        for key in sorted(self._touched):
            total = self._fold(total, table[key])
        return total

    def observed_result(self, system) -> int:
        read = system.hierarchy.read_committed
        total = 0
        for i in range(self.iterations):
            total = self._fold(total, read(self._out_addr(i)))
        for key in sorted(self._touched):
            total = self._fold(total, read(self._key_addr(key)))
        return total

    # ------------------------------------------------------------------

    def arrival_schedule(self) -> List[int]:
        """The precomputed arrival timestamps (diagnostics/tests)."""
        return [plan.arrival for plan in self._plans]

    def plans(self) -> List[TxPlan]:
        return list(self._plans)


# ----------------------------------------------------------------------
# Registry factories
# ----------------------------------------------------------------------

def _sized(scale: float) -> Tuple[int, int]:
    """(requests, keys) at ``scale``; 1.0 = 96 requests over 10^5 keys."""
    return max(8, round(96 * scale)), max(256, round(100_000 * scale))


def kv_workload(scale: float, seed: int = 42,
                **kwargs) -> KVStoreWorkload:
    requests, keys = _sized(scale)
    params: dict = dict(name="svc-kv", requests=requests, keys=keys,
                        seed=seed, mix=(60, 25, 15, 0))
    params.update(kwargs)
    return KVStoreWorkload(**params)


def kv_read_workload(scale: float, seed: int = 42,
                     **kwargs) -> KVStoreWorkload:
    requests, keys = _sized(scale)
    params: dict = dict(name="svc-kv-read", requests=requests, keys=keys,
                        seed=seed, mix=(90, 5, 5, 0))
    params.update(kwargs)
    return KVStoreWorkload(**params)


def oltp_workload(scale: float, seed: int = 42,
                  **kwargs) -> KVStoreWorkload:
    requests, keys = _sized(scale)
    params: dict = dict(name="svc-oltp", requests=requests, keys=keys,
                        seed=seed, mix=(15, 10, 35, 40), ops_per_tx=4)
    params.update(kwargs)
    return KVStoreWorkload(**params)
