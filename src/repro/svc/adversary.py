"""Deterministic adversarial workload generator: mutate-and-score search.

The TM-pathology literature (Alistarh et al.; Brown & Ravi) says the
interesting failure modes — abort storms, livelock escalation ladders,
VID-window exhaustion — live in a small corner of the access-pattern
space.  This module searches that space mechanically: an access-pattern
*genome* (key overlap, footprint, transaction length, interleaving)
instantiates an :class:`AdversarialWorkload`, the workload runs observed
under the standard DOALL executor, and the run is scored from exactly
the signals the :mod:`repro.obs` profiler exposes:

``score = 100·aborts/commit + 10·escalations + 25·fallback_entries
          + 400·vid_reset_share + 100·abort_replay_share
          + 50·commit_stall_share``

(the three shares are fractions of all thread cycles, straight from
:func:`repro.obs.profile.attribute`).

A seeded hill-climb (:func:`search`) mutates one gene at a time and
keeps the highest-scoring genome; every draw comes from one
:class:`~repro.workloads.common.Lcg`, so equal seeds reproduce the
entire search byte-for-byte.  High scorers are serialized as *survivor*
JSON files (``hmtx-svc-survivor/1``) that replay as regression
workloads: the workload table resolves ``svc-survivor:<path>``, so
survivors run through the sweep engine and ``python -m repro analyze
--racecheck`` by name, and CI re-scores them against the recorded
metrics (:func:`replay_survivor`).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, List, Tuple

from ..core.config import MachineConfig
from ..cpu.isa import Load, Store, Work
from ..obs.profile import attribute
from ..obs.session import ObsSession
from ..runtime.paradigms import run_workload
from ..txctl import ContentionManager, make_policy
from ..workloads.base import Fragment, Workload
from ..workloads.common import LINE, Lcg

SURVIVOR_SCHEMA = "hmtx-svc-survivor/1"
SEARCH_SCHEMA = "hmtx-svc-search/1"

#: txctl policy the adversary runs (and survivors replay) under — the
#: full ladder, so livelock escalations and serial fallback can fire.
ADVERSARY_POLICY = "backoff"


def adversary_rig() -> MachineConfig:
    """The fixed machine the search scores genomes on.

    The default 64 KiB/32 MiB hierarchy absorbs any footprint the gene
    bounds allow, which would leave the ``footprint``/``stride`` genes
    with no gradient.  Scoring runs instead on a deliberately tight rig
    (same precedent as ``CapacityHogWorkload.tiny_config``) where the
    speculative-version capacity frontier falls *inside* the gene
    bounds: 4 concurrent transactions of a few dozen lines genuinely
    overflow the LLC and the search can discover capacity aborts,
    escalation ladders and the serial fallback.  Survivors replayed by
    name through the sweep engine or racecheck still run on whatever
    machine those drivers configure — the rig only defines the score.
    """
    return MachineConfig(num_cores=4, l1_size=2048, l1_assoc=2,
                         l2_size=8192, l2_assoc=4)

_MASK = 0xFFFFFFFF
_HOT_REGION = 0x2000_0000
_COLD_REGION = 0x2800_0000
_OUT_REGION = 0x3000_0000

#: Per-gene (lo, hi, mutation step) bounds.  ``iterations`` ranges past
#: the 6-bit VID window (63) so the search can discover epoch-recycling
#: (``vid_reset``) pressure.
_GENE_BOUNDS: Dict[str, Tuple[int, int, int]] = {
    "hot_keys": (1, 32, 4),
    "hot_pct": (0, 100, 20),
    "footprint": (1, 64, 8),
    "tx_ops": (1, 32, 4),
    "rmw_pct": (0, 100, 20),
    "think_cycles": (0, 64, 8),
    "stride": (1, 8, 2),
    "iterations": (8, 96, 16),
}


@dataclass(frozen=True)
class Genome:
    """One access pattern: what the adversarial transactions touch."""

    hot_keys: int = 4       #: size of the shared hot set (lines)
    hot_pct: int = 70       #: % of the footprint drawn from the hot set
    footprint: int = 8      #: distinct lines per transaction
    tx_ops: int = 6         #: accesses per transaction
    rmw_pct: int = 50       #: % of accesses that read-modify-write
    think_cycles: int = 8   #: straight-line work between accesses
    stride: int = 1         #: hot-set line stride (set-conflict shaping)
    iterations: int = 48    #: loop trip count (VID-window pressure)

    def clamped(self) -> "Genome":
        values = {}
        for gene, (lo, hi, _) in _GENE_BOUNDS.items():
            values[gene] = min(hi, max(lo, getattr(self, gene)))
        return Genome(**values)

    def mutate(self, rng: Lcg) -> "Genome":
        """One-gene mutation: additive step of LCG-drawn magnitude."""
        gene = list(_GENE_BOUNDS)[rng.next(len(_GENE_BOUNDS))]
        _, _, step = _GENE_BOUNDS[gene]
        magnitude = 1 + rng.next(step)
        delta = magnitude if rng.next(2) == 0 else -magnitude
        return replace(self, **{gene: getattr(self, gene) + delta}).clamped()

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Genome":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown genome genes: {sorted(unknown)}")
        return cls(**{k: int(v) for k, v in data.items()}).clamped()


class AdversarialWorkload(Workload):
    """DOALL loop whose access pattern is dictated by a :class:`Genome`.

    Each iteration builds a line pool (hot lines shared across all
    iterations, cold lines private to this one) and issues ``tx_ops``
    reads/writes/RMWs over it — the sequential replay in
    ``expected_result`` defines the semantics the speculative run must
    preserve, exactly like the KV family.
    """

    paradigm = "DOALL"

    def __init__(self, genome: Genome, seed: int = 42,
                 name: str = "svc-adversary") -> None:
        self.genome = genome.clamped()
        self.seed = seed
        self.name = name
        self.iterations = self.genome.iterations
        rng = Lcg((seed * 2654435761) ^ 0xAD5E_11E7)
        g = self.genome
        self._plans: List[Tuple[Tuple[str, str, int, int], ...]] = []
        for i in range(g.iterations):
            pool: List[Tuple[str, int]] = []
            for f in range(g.footprint):
                if rng.next(100) < g.hot_pct:
                    pool.append(("hot", rng.next(g.hot_keys) * g.stride))
                else:
                    pool.append(("cold", i * g.footprint + f))
            ops: List[Tuple[str, str, int, int]] = []
            for _ in range(g.tx_ops):
                tag, index = pool[rng.next(len(pool))]
                if rng.next(100) < g.rmw_pct:
                    ops.append(("add", tag, index, rng.next(255) + 1))
                elif rng.next(2) == 0:
                    ops.append(("read", tag, index, 0))
                else:
                    ops.append(("write", tag, index, rng.next(1 << 30)))
            self._plans.append(tuple(ops))
        self._touched = sorted({(tag, index) for plan in self._plans
                                for _, tag, index, _ in plan})

    # ------------------------------------------------------------------

    def _addr(self, tag: str, index: int) -> int:
        base = _HOT_REGION if tag == "hot" else _COLD_REGION
        return base + index * LINE

    def _out_addr(self, i: int) -> int:
        return _OUT_REGION + i * LINE

    def setup(self, system) -> None:
        memory = system.hierarchy.memory
        for tag, index in self._touched:
            memory.write_word(self._addr(tag, index), index & _MASK)
        for i in range(self.iterations):
            memory.write_word(self._out_addr(i), 0)

    def _body(self, i: int) -> Fragment:
        acc = i & _MASK
        think = self.genome.think_cycles
        for op, tag, index, operand in self._plans[i]:
            addr = self._addr(tag, index)
            if op == "read":
                value = yield Load(addr)
            elif op == "write":
                value = operand
                yield Store(addr, value)
            else:
                current = yield Load(addr)
                yield Work(1)
                value = (current + operand) & _MASK
                yield Store(addr, value)
            acc = (acc * 31 + value) & _MASK
            if think:
                yield Work(think)
        yield Store(self._out_addr(i), acc)

    def sequential_iteration(self, i: int, carry: Any) -> Fragment:
        yield from self._body(i)
        return None

    def doall_iteration(self, i: int) -> Fragment:
        yield from self._body(i)

    # ------------------------------------------------------------------

    def expected_result(self, system) -> int:
        table = {key: key[1] & _MASK for key in self._touched}
        total = 0
        for i, plan in enumerate(self._plans):
            acc = i & _MASK
            for op, tag, index, operand in plan:
                key = (tag, index)
                if op == "read":
                    value = table[key]
                elif op == "write":
                    value = operand
                    table[key] = value
                else:
                    value = (table[key] + operand) & _MASK
                    table[key] = value
                acc = (acc * 31 + value) & _MASK
            total = (total * 131 + acc) & _MASK
        for key in self._touched:
            total = (total * 131 + table[key]) & _MASK
        return total

    def observed_result(self, system) -> int:
        read = system.hierarchy.read_committed
        total = 0
        for i in range(self.iterations):
            total = (total * 131 + read(self._out_addr(i))) & _MASK
        for tag, index in self._touched:
            total = (total * 131 + read(self._addr(tag, index))) & _MASK
        return total


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

def evaluate_genome(genome: Genome, seed: int = 42,
                    policy: str = ADVERSARY_POLICY) -> Dict[str, Any]:
    """Run one genome observed and score it from the profiler's signals.

    Pure function of ``(genome, seed, policy, code)`` — the simulation
    is deterministic and the observation layer is behaviour-neutral, so
    re-evaluating a committed survivor must reproduce its metrics.
    """
    workload = AdversarialWorkload(genome, seed=seed)
    session = ObsSession()
    with session.activate():
        result = run_workload(workload, adversary_rig(), paradigm="DOALL",
                              manager=ContentionManager(
                                  policy=make_policy(policy)))
    session.detach()
    session.finalize(result)
    attribution = attribute(session)
    stats = result.system.stats
    contention = stats.contention
    commits = stats.committed
    aborts = stats.aborted
    aborts_per_commit = round(aborts / max(1, commits), 4)
    escalations = sum(contention.escalations.values())
    total = max(1, attribution.total_thread_cycles)

    def share(category: str) -> float:
        return round(attribution.totals.get(category, 0) / total, 6)

    vid_reset_share = share("vid_reset")
    abort_replay_share = share("abort_replay")
    commit_stall_share = share("commit_stall")
    metrics = {
        "cycles": result.cycles,
        "commits": commits,
        "aborts": aborts,
        "aborts_per_commit": aborts_per_commit,
        "escalations": escalations,
        "fallback_entries": contention.fallback_entries,
        "vid_reset_share": vid_reset_share,
        "abort_replay_share": abort_replay_share,
        "commit_stall_share": commit_stall_share,
        "correct": workload.observed_result(result.system)
        == workload.expected_result(result.system),
    }
    # Discrete pathology counters plus the profiler's continuous
    # wasted-cycle shares: the counters saturate once the escalation
    # ladder clamps concurrency, so the shares carry the gradient the
    # hill-climb follows between escalation regimes.
    metrics["score"] = round(100.0 * aborts_per_commit
                             + 10.0 * escalations
                             + 25.0 * contention.fallback_entries
                             + 400.0 * vid_reset_share
                             + 100.0 * abort_replay_share
                             + 50.0 * commit_stall_share, 4)
    return metrics


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------

def search(seed: int = 42, rounds: int = 4,
           population: int = 4) -> Dict[str, Any]:
    """Seeded hill-climb over genomes; returns a plain-data report.

    Each round mutates the incumbent ``population`` times, evaluates
    every new genome once (results memoised by genome), and adopts the
    best strict improvement.  Ties and ordering are deterministic:
    candidates are evaluated in generation order and compared by
    ``(score, earlier-first)``.
    """
    rng = Lcg((seed * 1_000_003) ^ 0x5EA2C4)
    incumbent = Genome().clamped()
    seen: Dict[Tuple[int, ...], Dict[str, Any]] = {}

    def evaluate(genome: Genome) -> Dict[str, Any]:
        key = tuple(genome.to_dict()[g] for g in sorted(_GENE_BOUNDS))
        if key not in seen:
            entry = {"genome": genome.to_dict(),
                     "metrics": evaluate_genome(genome, seed=seed)}
            entry["score"] = entry["metrics"]["score"]
            entry["order"] = len(seen)
            seen[key] = entry
        return seen[key]

    best = evaluate(incumbent)
    history: List[Dict[str, Any]] = []
    for round_index in range(rounds):
        candidates = [evaluate(incumbent.mutate(rng))
                      for _ in range(population)]
        round_best = max(candidates,
                         key=lambda entry: (entry["score"], -entry["order"]))
        if round_best["score"] > best["score"]:
            best = round_best
            incumbent = Genome.from_dict(best["genome"])
        history.append({"round": round_index,
                        "best_score": best["score"],
                        "round_best_score": round_best["score"]})
    leaderboard = sorted(seen.values(),
                         key=lambda entry: (-entry["score"], entry["order"]))
    return {
        "schema": SEARCH_SCHEMA,
        "seed": seed,
        "policy": ADVERSARY_POLICY,
        "rounds": rounds,
        "population": population,
        "evaluated": len(seen),
        "best": best,
        "history": history,
        "leaderboard": leaderboard[:10],
    }


# ----------------------------------------------------------------------
# Survivor serialization / replay
# ----------------------------------------------------------------------

def survivor_payload(entry: Dict[str, Any], seed: int, policy: str,
                     name: str) -> Dict[str, Any]:
    """The committed regression-workload document for one search entry."""
    return {
        "schema": SURVIVOR_SCHEMA,
        "name": name,
        "seed": seed,
        "policy": policy,
        "genome": dict(entry["genome"]),
        "score": entry["score"],
        "metrics": dict(entry["metrics"]),
    }


def write_survivors(report: Dict[str, Any], directory,
                    count: int = 2, min_score: float = 0.0) -> List[str]:
    """Serialize the top ``count`` distinct genomes as survivor files."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: List[str] = []
    rank = 0
    for entry in report["leaderboard"]:
        if entry["score"] < min_score or not entry["metrics"]["correct"]:
            continue
        rank += 1
        name = f"svc-adv-s{report['seed']}-{rank:02d}"
        payload = survivor_payload(entry, report["seed"],
                                   report["policy"], name)
        path = directory / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")
        paths.append(str(path))
        if rank >= count:
            break
    return paths


def load_survivor(path) -> Dict[str, Any]:
    data = json.loads(pathlib.Path(path).read_text())
    if data.get("schema") != SURVIVOR_SCHEMA:
        raise ValueError(f"{path}: not a {SURVIVOR_SCHEMA} document "
                         f"(schema={data.get('schema')!r})")
    return data


def survivor_workload(path, **options) -> AdversarialWorkload:
    """Build the regression workload a survivor file describes.

    This is the resolver behind the workload table's ``svc-survivor:<path>``
    names, so survivors replay through everything that accepts a
    workload name (sweep engine, racecheck, CLI).
    """
    data = load_survivor(path)
    if options:
        raise TypeError(f"survivor workloads take no options: {options!r}")
    return AdversarialWorkload(Genome.from_dict(data["genome"]),
                               seed=data["seed"],
                               name=f"svc-survivor:{data['name']}")


def replay_survivor(path, tolerance: float = 0.25) -> Dict[str, Any]:
    """Re-score a survivor and compare against its recorded metrics.

    The gate CI enforces: the re-evaluated abort rate must lie within
    ``tolerance`` (relative, floored at an absolute 0.05) of the
    recorded ``aborts_per_commit``, and the run must stay correct.
    """
    data = load_survivor(path)
    metrics = evaluate_genome(Genome.from_dict(data["genome"]),
                              seed=data["seed"],
                              policy=data.get("policy", ADVERSARY_POLICY))
    recorded = data["metrics"]["aborts_per_commit"]
    observed = metrics["aborts_per_commit"]
    allowed = max(0.05, tolerance * max(1.0, recorded))
    ok = metrics["correct"] and abs(observed - recorded) <= allowed
    return {
        "path": str(path),
        "name": data["name"],
        "recorded_aborts_per_commit": recorded,
        "observed_aborts_per_commit": observed,
        "recorded_score": data["score"],
        "observed_score": metrics["score"],
        "allowed_delta": round(allowed, 4),
        "correct": metrics["correct"],
        "ok": ok,
    }


def adversary_workload(scale: float, seed: int = 42,
                       **genes) -> AdversarialWorkload:
    """Registry factory: the default genome with per-gene overrides.

    ``scale`` multiplies the iteration count (clamped to the gene
    bounds) so ``svc-adversary`` behaves like every other registered
    workload under ``--scale``.
    """
    genome = Genome.from_dict({**Genome().to_dict(), **genes})
    if scale != 1.0:
        genome = replace(genome,
                         iterations=round(genome.iterations
                                          * scale)).clamped()
    return AdversarialWorkload(genome, seed=seed)
