"""Interleaving-level stateful model checker for the HMTX coherence stack.

``repro.analysis.modelcheck`` proves the *local* argument: every
hit/miss/abort decision is a pure function of ``(state, modVID, highVID,
requestVID)`` and each transition obeys Figures 4-7.  The bugs that
actually bite an MTX implementation live in *interleavings*: commit
broadcasts racing lazy folds, VID-reset scrubs racing in-flight writes,
cross-socket directory forwarding reordering against L1 victims.  This
module drives the **real** machine — :class:`~repro.coherence.hierarchy.
MemoryHierarchy` / :class:`~repro.coherence.directory.DirectoryHierarchy`,
flat and 2-socket — through every interleaving of a small bounded scenario
and checks global rules the local checker cannot express:

``EX001`` **serializability** — at every terminal state, the loads each
    committed transaction observed equal a sequential replay of the
    committed programs in commit order (commit order is VID order under
    the group-commit rule, so the witness order is determined).
``EX002`` **no lost updates** — after every step, the committed view
    (what a non-speculative request would observe, i.e. the resolved
    version hitting ``LC_VID``) of every scenario address agrees across
    caches and equals the fold of the committed transactions' stores;
    when no cache holds a committed copy, memory must.
``EX003`` **directory-cache agreement** — after every step the machine's
    own invariants hold on the *reachable* state: unique latest version,
    unique hit per (cache, VID), presence map exact, sliced-LLC home
    ownership, every holder recorded in the directory (MC009/MC010
    extended from static structure to all reachable states).
``EX004`` **liveness** — no reachable state deadlocks under fair
    scheduling (some event is enabled until everything committed and the
    VID space was reset), and every abort has a *blocker*: a conflicting
    speculative version that justifies it.  A genuine livelock ends in
    txctl-style escalation after ``max_attempts`` — that is recorded as
    coverage, not a violation; a spurious abort or a stuck schedule is.

Reduction (DESIGN.md §15 gives the full soundness argument): classical
static persistent-set DPOR is *unsound* here — commit/abort broadcasts
touch every cache and the lazy-fold timing makes nearly all transitions
pairwise dependent — so the state space is instead quotiented by
canonicalization: states are hashed over their **resolved** line-store
columns (read through the cache's own pure fold,
:meth:`~repro.coherence.cache.VersionedCache.resolved`, which is
confluent, so pending lazy events do not split states), VIDs are
renamed by their rank (an order-isomorphism: the protocol compares
request VIDs against tags only with ``>=``/``<`` and tests equality only
against ``modVID`` tags, so any order-preserving renaming is a behavior
isomorphism), and on symmetric 2-socket scenarios the socket-mirror
automorphism folds mirrored states together.  VIDs are allocated lazily
at a thread's first action — an MTX epoch receives its VID when it
starts — which is exactly what makes mirrored schedules reach
rank-identical states.  ``--no-reduce`` keeps the dedup but disables
the renaming and mirror.

On violation the schedule is delta-debugged (:func:`minimize`) and
emitted as a self-contained, replayable counterexample artifact
(``hmtx-explore-counterex/1``) that :func:`replay_counterexample` — and
the committed regression harness under ``tests/analysis/counterexamples``
— can execute directly, the same survivor-replay pattern ``repro.svc``
uses.  Mutation hooks (:data:`INJECTIONS`) break the machine in eight
distinct ways so the test suite proves every EX rule bites.
"""

from __future__ import annotations

import copy
import functools
import json
import types
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..coherence.cache import VersionedCache
from ..coherence.directory import DirectoryConfig, DirectoryHierarchy
from ..coherence.hierarchy import HierarchyConfig, MemoryHierarchy
from ..coherence.line import CacheLine
from ..coherence.protocol import version_hits_code
from ..coherence.states import CODE_SM, CODE_SS, State
from ..errors import MisspeculationError
from ..topology import TopologySpec, place_core
from ..txctl.causes import AbortCause
from .findings import SEVERITY_ERROR, Finding, PassReport

#: Schema tag of the replayable counterexample artifact.
COUNTEREXAMPLE_SCHEMA = "hmtx-explore-counterex/1"

#: Pseudo-event: the section 4.6 VID reset (legal once everything committed).
RESET_EVENT = -1

#: Reported findings are capped per (shape, rule); the rest are counted.
MAX_FINDINGS_PER_RULE = 5

DEFAULT_MAX_STATES = 20000
DEFAULT_MAX_DEPTH = 80

#: Known machine shapes.
SHAPES = ("flat", "2socket")

_LINE = 64
_A, _B, _C = 0x000, 0x040, 0x080


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A bounded exploration scenario: one program per thread.

    Each thread models one MTX epoch: it runs its ops speculatively under
    a VID allocated when it first acts (epochs receive their VID at
    start), then commits.  Commits follow the group-commit rule (VID
    order, i.e. epoch-start order); after every thread committed, the VID
    space is reset.  Ops are ``("load", addr)`` / ``("store", addr,
    value)`` tuples.
    """

    name: str
    threads: Tuple[Tuple[Tuple, ...], ...]
    addrs: Tuple[int, ...]
    vid_bits: int = 4
    max_attempts: int = 2
    vid_start: int = 1


#: Scenario presets.  ``small`` is deliberately symmetric under the
#: address swap A<->B (same store value), so the 2-socket mirror
#: reduction actually quotients; ``chain`` exercises cross-thread
#: uncommitted-value forwarding; ``scrub`` adds a third line so VID-reset
#: scrubs race extra resident versions.
EXPLORE_PRESETS: Dict[str, Scenario] = {
    "small": Scenario(
        name="small",
        threads=(
            (("store", _A, 10), ("load", _B)),
            (("store", _B, 10), ("load", _A)),
        ),
        addrs=(_A, _B),
    ),
    "chain": Scenario(
        name="chain",
        threads=(
            (("store", _A, 1),),
            (("load", _A), ("store", _B, 2)),
            (("load", _B),),
        ),
        addrs=(_A, _B),
    ),
    "scrub": Scenario(
        name="scrub",
        threads=(
            (("store", _A, 7), ("store", _C, 9), ("load", _B)),
            (("store", _B, 8), ("load", _C)),
        ),
        addrs=(_A, _B, _C),
    ),
}


def build_hierarchy(scenario: Scenario, shape: str):
    """Build the real machine for a scenario; returns ``(hierarchy, cores)``.

    Tiny geometry (4-line L1s, 16-line flat LLC / 8-line slices) so
    eviction and overflow paths are reachable within the bounded state
    space; all latencies 1 — exploration is untimed, only the protocol
    decisions matter.
    """
    n = len(scenario.threads)
    if shape == "flat":
        config = HierarchyConfig(
            num_cores=n, l1_size=256, l1_assoc=2, l1_latency=1,
            l2_size=1024, l2_assoc=4, l2_latency=1, line_size=_LINE,
            memory_latency=1, vid_bits=scenario.vid_bits,
            broadcast_latency=1, bus_occupancy=1)
        return MemoryHierarchy(config), tuple(range(n))
    if shape == "2socket":
        cps = (n + 1) // 2
        topo = TopologySpec(
            sockets=2, cores_per_socket=cps, llc_slice_size=512,
            llc_slice_assoc=4, llc_slice_latency=1, intra_hop_latency=1,
            cross_hop_latency=1)
        config = DirectoryConfig(
            num_cores=topo.num_cores, l1_size=256, l1_assoc=2,
            l1_latency=1, line_size=_LINE, memory_latency=1,
            vid_bits=scenario.vid_bits, broadcast_latency=1,
            bus_occupancy=1, topology=topo, directory_banks=2,
            directory_latency=1, bank_occupancy=1, link_latency=1)
        cores = tuple(place_core(i, topo.num_cores, topo, "spread")
                      for i in range(n))
        return DirectoryHierarchy(config), cores
    raise ValueError(f"unknown shape {shape!r} (expected one of {SHAPES})")


# ----------------------------------------------------------------------
# Run state
# ----------------------------------------------------------------------

class _Thread:
    """Per-thread execution state (one MTX epoch, possibly retried)."""

    def __init__(self) -> None:
        self.status = "running"        # running | committed | escalated
        self.pc = 0
        self.attempt = 1
        self.vid = 0
        self.committed_vid = 0
        #: ``(pc, value)`` observations of the *current* attempt.
        self.loads: List[Tuple[int, int]] = []


class _Run:
    """One exploration node: the real machine plus scheduler state."""

    def __init__(self, scenario: Scenario, shape: str,
                 inject: Optional[str] = None) -> None:
        self.scenario = scenario
        self.shape = shape
        self.inject = inject
        self.hierarchy, self.cores = build_hierarchy(scenario, shape)
        self.next_vid = scenario.vid_start
        self.threads = [_Thread() for _ in scenario.threads]
        self.committed_order: List[int] = []
        self.reset_done = False
        self.escalated = False
        self.schedule: List[int] = []
        self.abort_log: List[Tuple[int, str, int]] = []
        #: Violations raised mid-step, drained by :func:`step_and_check`.
        self.pending: List[Dict[str, Any]] = []
        if inject is not None:
            INJECTIONS[inject](self)

    def _fresh_vid(self, thread: int) -> int:
        # Keep headroom for the eff+1 successors the protocol mints
        # (forwarded-copy windows, overflow retrieval).
        cap = (1 << self.scenario.vid_bits) - 2
        if self.next_vid > cap:
            raise RuntimeError(
                f"scenario {self.scenario.name!r} exhausted the "
                f"{self.scenario.vid_bits}-bit VID space")
        vid = self.next_vid
        self.next_vid += 1
        return vid


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------

def enabled_events(run: _Run) -> List[int]:
    """The events a fair scheduler could fire next.

    Event ``i`` advances thread ``i``: its next op, or — once its program
    finished — its commit.  Group commit: a thread may commit only when
    its VID is the minimum among started running threads (commits happen
    in VID order; an epoch that has not started yet will draw a larger
    VID, so it never blocks an earlier commit).  ``RESET_EVENT`` is
    enabled exactly when everything committed and the reset has not
    happened yet.
    """
    if run.escalated:
        return []
    if all(t.status == "committed" for t in run.threads):
        return [] if run.reset_done else [RESET_EVENT]
    started = [t.vid for t in run.threads
               if t.status == "running" and t.vid > 0]
    min_vid = min(started) if started else 0
    stuck = getattr(run.hierarchy, "_commits_stuck", False)
    events = []
    for i, thread in enumerate(run.threads):
        if thread.status != "running":
            continue
        if thread.pc < len(run.scenario.threads[i]):
            events.append(i)
        elif thread.vid in (0, min_vid) and not stuck:
            events.append(i)
    return events


def step(run: _Run, event: int) -> None:
    """Fire one event on the run (mutates it in place)."""
    run.schedule.append(event)
    hierarchy = run.hierarchy
    if event == RESET_EVENT:
        hierarchy.vid_reset()
        run.reset_done = True
        return
    thread = run.threads[event]
    program = run.scenario.threads[event]
    if thread.vid == 0:
        # Lazy VID allocation: the epoch starts at its first action.
        thread.vid = run._fresh_vid(event)
    if thread.pc >= len(program):
        hierarchy.commit(thread.vid)
        thread.status = "committed"
        thread.committed_vid = thread.vid
        run.committed_order.append(event)
        return
    op = program[thread.pc]
    core = run.cores[event]
    try:
        if op[0] == "load":
            result = hierarchy.load(core, op[1], thread.vid)
            thread.loads.append((thread.pc, result.value))
        else:
            hierarchy.store(core, op[1], thread.vid, op[2])
    except MisspeculationError as exc:
        _handle_abort(run, event, exc)
        return
    thread.pc += 1


def _has_blocker(run: _Run, exc: MisspeculationError) -> bool:
    """Is there a conflicting speculative version justifying this abort?

    A blocker is any resolved speculative version of the faulting line
    created by another transaction (``modVID`` set and different from the
    aborting VID) or read by a strictly different one (``highVID`` set,
    differing from both the aborting VID and its own ``modVID``).
    """
    base = run.hierarchy.llc_slices[0].line_addr(exc.addr)
    eff = exc.vid
    for cache in run.hierarchy._caches:
        for slot in cache._by_base.get(base, ()):
            resolved = cache.resolved(slot)
            if resolved is None:
                continue
            code, mod, high = resolved
            if code < CODE_SM:
                continue
            if mod > 0 and mod != eff:
                return True
            if high > 0 and high != eff and high != mod:
                return True
    return False


def _handle_abort(run: _Run, event: int, exc: MisspeculationError) -> None:
    """Group abort: every running transaction restarts with a fresh VID."""
    cause = exc.cause.name if exc.cause is not None else "UNKNOWN"
    run.abort_log.append((event, cause, exc.addr or 0))
    if exc.cause is AbortCause.CONFLICT and not _has_blocker(run, exc):
        run.pending.append({
            "rule": "EX004",
            "message": f"spurious abort: thread {event} aborted at "
                       f"0x{(exc.addr or 0):x} with no conflicting "
                       f"speculative version anywhere",
            "detail": str(exc),
        })
    run.hierarchy.abort()
    for thread in run.threads:
        if thread.status != "running":
            continue
        thread.attempt += 1
        thread.pc = 0
        thread.loads = []
        thread.vid = 0  # re-allocated lazily at the retry's first action
        if thread.attempt > run.scenario.max_attempts:
            # txctl escalation ladder: retries exhausted, the software
            # falls back to non-speculative serial execution.  Genuine
            # livelock, not a checker violation — recorded as coverage.
            thread.status = "escalated"
            run.escalated = True


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def _violation(run: _Run, rule: str, message: str, detail: str) -> Dict[str, Any]:
    return {"rule": rule, "message": message, "detail": detail,
            "schedule": list(run.schedule)}


def _expected_committed(run: _Run) -> Dict[int, int]:
    """Fold the committed transactions' stores in commit order."""
    memory: Dict[int, int] = {addr: 0 for addr in run.scenario.addrs}
    for idx in run.committed_order:
        for op in run.scenario.threads[idx]:
            if op[0] == "store":
                memory[op[1]] = op[2]
    return memory


def _check_committed_view(run: _Run) -> List[Dict[str, Any]]:
    """EX002 (+ the EX003 unique-hit corollary) on the current state."""
    violations = []
    expected = _expected_committed(run)
    hierarchy = run.hierarchy
    for addr in run.scenario.addrs:
        want = expected[addr]
        word = hierarchy._word(addr)
        hit_anywhere = False
        for cache in hierarchy._caches:
            hits = []
            for slot in cache._by_base.get(addr, ()):
                resolved = cache.resolved(slot)
                if resolved is None:
                    continue
                code, mod, high = resolved
                if version_hits_code(code, mod, high, cache.lc_vid):
                    hits.append((slot, code, mod, high))
            if len(hits) > 1:
                violations.append(_violation(
                    run, "EX003",
                    f"{cache.name}: two resolved versions of 0x{addr:x} "
                    f"hit the committed view (LC_VID {cache.lc_vid})",
                    f"versions: {[(c, m, h) for _, c, m, h in hits]}"))
                continue
            if hits:
                hit_anywhere = True
                slot = hits[0][0]
                got = cache._store.data[slot][word]
                if got != want:
                    violations.append(_violation(
                        run, "EX002",
                        f"lost update at 0x{addr:x}: {cache.name} "
                        f"committed view reads {got}, expected {want}",
                        f"committed order {list(run.committed_order)}, "
                        f"version {hits[0][1:]}, LC_VID {cache.lc_vid}"))
        if not hit_anywhere:
            got = hierarchy.memory.read_word(addr)
            if got != want:
                violations.append(_violation(
                    run, "EX002",
                    f"lost update at 0x{addr:x}: no cached committed "
                    f"copy and memory reads {got}, expected {want}",
                    f"committed order {list(run.committed_order)}"))
    return violations


def check_machine(run: _Run) -> List[Dict[str, Any]]:
    """EX003 structural invariants + EX002 committed view, every step."""
    try:
        run.hierarchy.check_invariants()
        if isinstance(run.hierarchy, DirectoryHierarchy):
            run.hierarchy.check_directory_invariant()
    except AssertionError as exc:
        return [_violation(
            run, "EX003",
            "machine invariant violated after step", str(exc))]
    return _check_committed_view(run)


def _check_serializability(run: _Run) -> List[Dict[str, Any]]:
    """EX001: committed observations equal the sequential commit-order run."""
    violations = []
    memory: Dict[int, int] = {}
    for idx in run.committed_order:
        thread = run.threads[idx]
        observed = dict(thread.loads)
        for pc, op in enumerate(run.scenario.threads[idx]):
            if op[0] == "store":
                memory[op[1]] = op[2]
                continue
            want = memory.get(op[1], 0)
            got = observed.get(pc)
            if got != want:
                violations.append(_violation(
                    run, "EX001",
                    f"not serializable: thread {idx} (committed VID "
                    f"{thread.committed_vid}) load pc={pc} of "
                    f"0x{op[1]:x} observed {got}, sequential replay in "
                    f"commit order gives {want}",
                    f"committed order {list(run.committed_order)}"))
    return violations


def leaf_checks(run: _Run) -> List[Dict[str, Any]]:
    """Checks at states with no enabled events (EX004 deadlock + EX001)."""
    violations = []
    if not run.reset_done and not run.escalated:
        stalled = [i for i, t in enumerate(run.threads)
                   if t.status != "committed"]
        violations.append(_violation(
            run, "EX004",
            f"deadlock: no enabled event but threads {stalled} have not "
            f"committed",
            f"statuses {[t.status for t in run.threads]}, "
            f"vids {[t.vid for t in run.threads]}"))
    violations.extend(_check_serializability(run))
    return violations


def step_and_check(run: _Run, event: int) -> List[Dict[str, Any]]:
    """Fire ``event`` and run the per-step rules; returns violations."""
    violations = []
    try:
        step(run, event)
    except AssertionError as exc:
        violations.append(_violation(
            run, "EX003", "machine invariant violated during step",
            str(exc)))
    for item in run.pending:
        violations.append(_violation(run, item["rule"], item["message"],
                                     item["detail"]))
    run.pending = []
    if not violations:
        violations.extend(check_machine(run))
    return violations


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------

def _encode(run: _Run, amap: Optional[Dict[int, int]],
            tperm: Optional[Sequence[int]], sperm: Sequence[int],
            vmap: Optional[Dict[int, int]]) -> Tuple:
    """Encode the behavioral state under an (address, thread, socket)
    relabeling and a VID renaming.

    Encodes only what future behavior depends on: resolved slot triples
    plus data and relative LRU order, per-cache ``LC_VID``, memory words
    at the scenario addresses, thread tuples, commit order and the
    scheduler flags.  Excluded as behaviorally irrelevant (argument in
    DESIGN.md §15): timing state, statistics, abort-history tails
    (subsumed by resolution), the conservative directory sharer map.
    """
    scenario = run.scenario
    n = len(run.threads)
    if tperm is None:
        tperm = range(n)
    inverse = {old: role for role, old in enumerate(tperm)}

    def a(addr: int) -> int:
        return amap[addr] if amap else addr

    def v(vid: int) -> int:
        return vmap[vid] if vmap and vid > 0 else vid

    caches = [run.hierarchy.l1s[run.cores[old]] for old in tperm]
    caches.extend(run.hierarchy.llc_slices[s] for s in sperm)
    cache_enc = []
    for cache in caches:
        slots = []
        for base, bucket in cache._by_base.items():
            for slot in bucket:
                resolved = cache.resolved(slot)
                if resolved is None:
                    continue
                code, mod, high = resolved
                slots.append((cache._store.lru_tick[slot], a(base), code,
                              v(mod), v(high),
                              tuple(cache._store.data[slot])))
        slots.sort()
        cache_enc.append((v(cache.lc_vid),
                          tuple(entry[1:] for entry in slots)))
    memory = run.hierarchy.memory
    mem_enc = tuple(sorted(
        (a(addr), memory.read_word(addr)) for addr in scenario.addrs))
    thread_enc = []
    for old in tperm:
        thread = run.threads[old]
        thread_enc.append((thread.status, thread.pc, thread.attempt,
                           v(thread.vid), v(thread.committed_vid),
                           tuple(thread.loads)))
    order_enc = tuple(inverse[old] for old in run.committed_order)
    return (tuple(cache_enc), mem_enc, tuple(thread_enc), order_enc,
            v(run.next_vid), run.reset_done, run.escalated)


def _vid_ranks(run: _Run) -> Dict[int, int]:
    """Order-isomorphic VID renaming: map every live VID to its rank.

    Sound because every comparison the protocol makes against a VID tag
    is an order comparison (``>=`` / ``<`` for hit windows, commit folds
    and the ``eff + 1`` successor caps) or an equality test against a
    ``modVID`` tag, and both are preserved by any order-preserving
    bijection of the values actually present in the state (0 stays 0).
    Two runs whose VID assignments differ only by such a renaming —
    a uniform offset, post-abort gaps, mirrored allocation order —
    canonicalize identically; the hypothesis property pins the quotient.
    """
    vids = {t.vid for t in run.threads if t.vid > 0}
    vids.update(t.committed_vid for t in run.threads if t.committed_vid > 0)
    vids.add(run.next_vid)
    for cache in run.hierarchy._caches:
        if cache.lc_vid > 0:
            vids.add(cache.lc_vid)
        for bucket in cache._by_base.values():
            for slot in bucket:
                resolved = cache.resolved(slot)
                if resolved is None:
                    continue
                _, mod, high = resolved
                if mod > 0:
                    vids.add(mod)
                if high > 0:
                    vids.add(high)
    return {vid: rank for rank, vid in enumerate(sorted(vids), start=1)}


def _mirror_mapping(run: _Run):
    """The 2-socket line-swap automorphism, when the scenario admits it.

    ``sigma(addr) = addr XOR line_size`` swaps home sockets (line-index
    parity flips) and is a geometry automorphism of the symmetric
    2-socket machine.  Valid only when it permutes the scenario addresses
    and some thread permutation maps the programs onto each other while
    swapping sockets.  Returns ``(amap, tperm, sperm)`` or ``None``.
    """
    if run.shape != "2socket":
        return None
    topo = run.hierarchy.config.topology
    addrs = run.scenario.addrs
    amap = {addr: addr ^ _LINE for addr in addrs}
    if sorted(amap.values()) != sorted(addrs):
        return None

    def mapped_program(program):
        return tuple(
            ("load", amap[op[1]]) if op[0] == "load"
            else ("store", amap[op[1]], op[2])
            for op in program)

    programs = run.scenario.threads
    n = len(programs)
    for perm in permutations(range(n)):
        if any(mapped_program(programs[perm[i]]) != programs[i]
               for i in range(n)):
            continue
        if all(topo.socket_of_core(run.cores[perm[i]])
               == 1 - topo.socket_of_core(run.cores[i])
               for i in range(n)):
            return amap, list(perm), (1, 0)
    return None


def canonical_key(run: _Run, reduce: bool = True) -> Tuple:
    """The state's canonical encoding (quotient key for the visited set)."""
    sperm = tuple(range(len(run.hierarchy.llc_slices)))
    if not reduce:
        return _encode(run, None, None, sperm, None)
    vmap = _vid_ranks(run)
    key = _encode(run, None, None, sperm, vmap)
    mirror = _mirror_mapping(run)
    if mirror is not None:
        amap, tperm, msperm = mirror
        key = min(key, _encode(run, amap, tperm, msperm, vmap))
    return key


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------

class Explorer:
    """Exhaustive DFS over the canonical quotient of the schedule space."""

    def __init__(self, scenario: Scenario, shape: str = "flat",
                 inject: Optional[str] = None, reduce: bool = True,
                 max_states: int = DEFAULT_MAX_STATES,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> None:
        self.scenario = scenario
        self.shape = shape
        self.inject = inject
        self.reduce = reduce
        self.max_states = max_states
        self.max_depth = max_depth
        self.visited: Set[Tuple] = set()
        self.violations: List[Dict[str, Any]] = []
        self.states = 0
        self.transitions = 0
        self.dedup_hits = 0
        self.leaves = 0
        self.exhausted = True

    def run(self) -> List[Dict[str, Any]]:
        root = _Run(self.scenario, self.shape, self.inject)
        self.visited.add(canonical_key(root, self.reduce))
        self.states = 1
        stack = [root]
        while stack:
            node = stack.pop()
            events = enabled_events(node)
            if not events:
                self.leaves += 1
                self.violations.extend(leaf_checks(node))
                continue
            if len(node.schedule) >= self.max_depth:
                self.exhausted = False
                continue
            for event in reversed(events):
                if self.states >= self.max_states:
                    self.exhausted = False
                    break
                child = copy.deepcopy(node)
                self.transitions += 1
                violations = step_and_check(child, event)
                if violations:
                    # Record and prune: everything below a violating
                    # transition reproduces it.
                    self.violations.extend(violations)
                    continue
                key = canonical_key(child, self.reduce)
                if key in self.visited:
                    self.dedup_hits += 1
                    continue
                self.visited.add(key)
                self.states += 1
                stack.append(child)
        return self.violations


# ----------------------------------------------------------------------
# Replay, minimization, artifacts
# ----------------------------------------------------------------------

def _replay(scenario: Scenario, shape: str, inject: Optional[str],
            schedule: Sequence[int]) -> Optional[List[Dict[str, Any]]]:
    """Replay a schedule from scratch.

    Returns ``None`` when the schedule is not executable (an event not
    enabled at its turn), the violations it triggers (possibly from the
    leaf checks when it runs to quiescence), or ``[]`` for a clean run.
    """
    run = _Run(scenario, shape, inject)
    for event in schedule:
        if event not in enabled_events(run):
            return None
        violations = step_and_check(run, event)
        if violations:
            return violations
    if not enabled_events(run):
        return leaf_checks(run)
    return []


def _ddmin(events: List[int], failing) -> List[int]:
    """Classic delta debugging over the event list."""
    granularity = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // granularity)
        reduced = False
        for start in range(0, len(events), chunk):
            candidate = events[:start] + events[start + chunk:]
            if candidate and failing(candidate):
                events = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return events


def minimize(scenario: Scenario, shape: str, inject: Optional[str],
             schedule: Sequence[int], rule: str) -> List[int]:
    """Delta-debug a violating schedule down to a minimal reproducer."""

    def failing(candidate: List[int]) -> bool:
        result = _replay(scenario, shape, inject, candidate)
        return result is not None and any(v["rule"] == rule for v in result)

    events = list(schedule)
    if not failing(events):
        return events
    return _ddmin(events, failing)


def _schedule_label(schedule: Sequence[int]) -> str:
    return ",".join("R" if e == RESET_EVENT else str(e) for e in schedule)


def counterexample_doc(scenario: Scenario, shape: str,
                       inject: Optional[str], rule: str, message: str,
                       detail: str, schedule: Sequence[int]) -> Dict[str, Any]:
    """Self-contained replayable counterexample artifact."""
    return {
        "schema": COUNTEREXAMPLE_SCHEMA,
        "rule": rule,
        "shape": shape,
        "inject": inject,
        "message": message,
        "detail": detail,
        "schedule": list(schedule),
        "scenario": {
            "name": scenario.name,
            "threads": [[list(op) for op in program]
                        for program in scenario.threads],
            "addrs": list(scenario.addrs),
            "vid_bits": scenario.vid_bits,
            "max_attempts": scenario.max_attempts,
            "vid_start": scenario.vid_start,
        },
    }


def scenario_from_doc(doc: Dict[str, Any]) -> Scenario:
    """Rebuild the frozen scenario a counterexample artifact embeds."""
    spec = doc["scenario"]
    return Scenario(
        name=spec["name"],
        threads=tuple(tuple(tuple(op) for op in program)
                      for program in spec["threads"]),
        addrs=tuple(spec["addrs"]),
        vid_bits=spec["vid_bits"],
        max_attempts=spec["max_attempts"],
        vid_start=spec["vid_start"])


def replay_counterexample(doc: Dict[str, Any]) -> List[str]:
    """Replay an artifact; returns the rules its schedule violates."""
    if doc.get("schema") != COUNTEREXAMPLE_SCHEMA:
        raise ValueError(f"not a {COUNTEREXAMPLE_SCHEMA} artifact: "
                         f"{doc.get('schema')!r}")
    scenario = scenario_from_doc(doc)
    result = _replay(scenario, doc["shape"], doc.get("inject"),
                     doc["schedule"])
    if result is None:
        return []
    return [violation["rule"] for violation in result]


# ----------------------------------------------------------------------
# Mutation hooks
# ----------------------------------------------------------------------
#
# Each injection breaks the machine in one specific way so the EX rules
# can be proven to bite.  All overrides are module-level functions bound
# with ``types.MethodType`` or ``functools.partial`` (never closures):
# ``copy.deepcopy`` rebinds bound methods to the copied instance and
# copies a partial's arguments, so the bug survives the explorer's state
# snapshots.

def _broken_fold_commit(self, vid: int) -> None:
    # Drops the LC_VID update: commits are never folded into this cache.
    self._epoch += 1
    self.stats.commit_broadcasts += 1


def _inject_broken_fold(run: _Run) -> None:
    l1 = run.hierarchy.l1s[run.cores[0]]
    l1.broadcast_commit = types.MethodType(_broken_fold_commit, l1)


def _broken_scrub_reset(self) -> None:
    # The real scrub, then one stale speculative residue left behind — a
    # line the section 4.6 sweep "missed".
    VersionedCache.vid_reset(self)
    if self._scrub_bug_done:
        return
    self._scrub_bug_done = True
    residue = CacheLine(self._scrub_bug_addr, State.SO,
                        [0] * self._scrub_bug_words, 0, 1)
    residue.epoch = self._epoch
    self._inject_line(residue)


def _inject_broken_scrub(run: _Run) -> None:
    l1 = run.hierarchy.l1s[run.cores[0]]
    l1._scrub_bug_done = False
    l1._scrub_bug_addr = run.scenario.addrs[0]
    l1._scrub_bug_words = run.hierarchy.memory.words_per_line
    l1.vid_reset = types.MethodType(_broken_scrub_reset, l1)


def _broken_forward_receive(self, core, owner_cache, owner, vid, kind):
    # Corrupts the data word of forwarded speculative (S-S) copies.
    slot = MemoryHierarchy._receive_from_owner(
        self, core, owner_cache, owner, vid, kind)
    store = self.l1s[core]._store
    if store.state[slot] == CODE_SS:
        store.data[slot][0] ^= 0x5A
    return slot


def _inject_broken_forward(run: _Run) -> None:
    hierarchy = run.hierarchy
    hierarchy._receive_from_owner = types.MethodType(
        _broken_forward_receive, hierarchy)


def _broken_presence_on(listener, cache, base, present):
    # Drops presence-map additions; removals still land.
    if not present:
        listener(cache, base, present)


def _inject_broken_presence(run: _Run) -> None:
    for cache in run.hierarchy._caches:
        cache.presence_listener = functools.partial(
            _broken_presence_on, cache.presence_listener)


def _broken_sharers_install(self, cache, base, code, data, mod_vid, high_vid):
    # Bypasses the directory's eager sharer recording on install.
    return MemoryHierarchy._install(self, cache, base, code, data, mod_vid,
                                    high_vid)


def _broken_sharers_record(self, cache, addr):
    pass


def _inject_broken_sharers(run: _Run) -> None:
    hierarchy = run.hierarchy
    if not isinstance(hierarchy, DirectoryHierarchy):
        return  # no directory to break on the flat machine
    hierarchy._install = types.MethodType(_broken_sharers_install, hierarchy)
    hierarchy._record_presence = types.MethodType(
        _broken_sharers_record, hierarchy)


def _skewed_read_load(self, core, addr, vid, now=0):
    # One-shot observation corruption: the machine state stays fully
    # consistent (EX002/EX003 hold), only the value handed to the core
    # is wrong — exactly the class of bug only end-to-end
    # serializability (EX001) can catch.
    result = MemoryHierarchy.load(self, core, addr, vid, now)
    if not self._skew_fired and vid > 0:
        self._skew_fired = True
        result.value ^= 0x1
    return result


def _inject_skewed_read(run: _Run) -> None:
    hierarchy = run.hierarchy
    hierarchy._skew_fired = False
    hierarchy.load = types.MethodType(_skewed_read_load, hierarchy)


def _inject_stuck_commit(run: _Run) -> None:
    # Commits never become enabled: the schedule wedges once every
    # thread finished its ops (EX004 deadlock).
    run.hierarchy._commits_stuck = True


def _phantom_abort_store(self, core, addr, vid, value, now=0):
    # One-shot conflict signal with no conflicting version behind it.
    if not self._phantom_fired:
        self._phantom_fired = True
        raise MisspeculationError(
            f"phantom conflict on store with VID {vid}",
            vid=vid, addr=addr, cause=AbortCause.CONFLICT)
    return MemoryHierarchy.store(self, core, addr, vid, value, now)


def _inject_phantom_abort(run: _Run) -> None:
    hierarchy = run.hierarchy
    hierarchy._phantom_fired = False
    hierarchy.store = types.MethodType(_phantom_abort_store, hierarchy)


INJECTIONS = {
    "broken-fold": _inject_broken_fold,
    "broken-scrub": _inject_broken_scrub,
    "broken-forward": _inject_broken_forward,
    "broken-presence": _inject_broken_presence,
    "broken-sharers": _inject_broken_sharers,
    "skewed-read": _inject_skewed_read,
    "stuck-commit": _inject_stuck_commit,
    "phantom-abort": _inject_phantom_abort,
}

#: Rules each injection may legitimately trip (mutation tests assert the
#: reported rules are a non-empty subset).
EXPECTED_INJECTION_RULES = {
    "broken-fold": {"EX002"},
    "broken-scrub": {"EX002", "EX003"},
    "broken-forward": {"EX001", "EX002"},
    "broken-presence": {"EX003"},
    "broken-sharers": {"EX003"},
    "skewed-read": {"EX001"},
    "stuck-commit": {"EX004"},
    "phantom-abort": {"EX004"},
}

#: The shape each injection's bug is reachable on ("flat" works for all
#: but the directory-specific one).
INJECTION_SHAPES = {
    "broken-fold": ("flat", "2socket"),
    "broken-scrub": ("flat", "2socket"),
    "broken-forward": ("flat", "2socket"),
    "broken-presence": ("flat", "2socket"),
    "broken-sharers": ("2socket",),
    "skewed-read": ("flat", "2socket"),
    "stuck-commit": ("flat", "2socket"),
    "phantom-abort": ("flat", "2socket"),
}


# ----------------------------------------------------------------------
# Pass entry point
# ----------------------------------------------------------------------

def explore_pass(preset: str = "small",
                 shapes: Sequence[str] = SHAPES,
                 inject: Optional[str] = None,
                 reduce: bool = True,
                 max_states: int = DEFAULT_MAX_STATES,
                 max_depth: int = DEFAULT_MAX_DEPTH,
                 emit_dir: Optional[str] = None) -> PassReport:
    """Run the explorer over a preset on the requested machine shapes.

    Deterministic and seed-free: the DFS order, the canonical encoding
    and the minimizer are all pure functions of (scenario, shape, code),
    so repeated runs produce byte-identical reports.  Violating schedules
    are minimized and attached to their findings as replayable
    counterexample artifacts; ``emit_dir`` additionally writes each as a
    JSON file.
    """
    if preset not in EXPLORE_PRESETS:
        raise ValueError(f"unknown preset {preset!r} "
                         f"(expected one of {sorted(EXPLORE_PRESETS)})")
    if inject is not None and inject not in INJECTIONS:
        raise ValueError(f"unknown injection {inject!r} "
                         f"(expected one of {sorted(INJECTIONS)})")
    scenario = EXPLORE_PRESETS[preset]
    findings: List[Finding] = []
    coverage: Dict[str, Any] = {
        "preset": preset,
        "reduce": reduce,
        "rules": "EX001,EX002,EX003,EX004",
    }
    if inject is not None:
        coverage["inject"] = inject
    total = 0
    emitted = 0
    for shape in shapes:
        if inject is not None and shape not in INJECTION_SHAPES[inject]:
            continue
        explorer = Explorer(scenario, shape, inject=inject, reduce=reduce,
                            max_states=max_states, max_depth=max_depth)
        violations = explorer.run()
        coverage[f"{shape}_states"] = explorer.states
        coverage[f"{shape}_transitions"] = explorer.transitions
        coverage[f"{shape}_dedup_hits"] = explorer.dedup_hits
        coverage[f"{shape}_leaves"] = explorer.leaves
        coverage[f"{shape}_exhausted"] = explorer.exhausted
        total += len(violations)
        per_rule: Dict[str, int] = {}
        for violation in violations:
            rule = violation["rule"]
            per_rule[rule] = per_rule.get(rule, 0) + 1
            if per_rule[rule] > MAX_FINDINGS_PER_RULE:
                continue
            schedule = minimize(scenario, shape, inject,
                                violation["schedule"], rule)
            doc = counterexample_doc(scenario, shape, inject, rule,
                                     violation["message"],
                                     violation["detail"], schedule)
            if emit_dir is not None:
                emitted += 1
                path = Path(emit_dir)
                path.mkdir(parents=True, exist_ok=True)
                name = f"{preset}-{shape}-{rule}-{per_rule[rule]:02d}.json"
                (path / name).write_text(
                    json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
            findings.append(Finding(
                rule=rule, severity=SEVERITY_ERROR,
                where=f"{preset}/{shape} schedule "
                      f"[{_schedule_label(schedule)}]",
                message=violation["message"],
                detail=violation["detail"],
                counterexample=doc))
    coverage["violations"] = total
    if emit_dir is not None:
        coverage["emitted"] = emitted
    return PassReport(name="explore", findings=findings, coverage=coverage)
