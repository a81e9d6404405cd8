"""Agreement test of the one install-and-evict path.

:meth:`VersionedCache.install_slot` decides each victim's fate once: a
silent victim (INVALID, clean non-speculative, ``S-S``) leaves the
hierarchy inside the cache, and at most one victim that needs action
comes back, as a flat ``(slot, vcode, vaddr, vdata, vmod, vhigh)`` tuple.
:meth:`MemoryHierarchy._install` then acts on that one victim, with the
L1-to-LLC route of a flat machine bound at construction.

The reference here is the two-step path it replaced, kept test-side as
:func:`reference_install_slot` (every victim handed back as a column
tuple, all of them chosen before any is acted on) and
:func:`reference_install` (the section 5.4 rules applied to each victim
in a loop, the L1 route through ``_home_llc``).  Both must agree on
everything an install leaves behind: the returned slot and the victims
that need action, each set's list and each bucket's order, which
victim's emptied bucket serves which new line, the free list, the LRU
ticks, ``evictions`` and both filter counters; and, at hierarchy level,
memory's lines, writebacks, ``nonspec_overflows``, overflow-table spills
and the capacity abort, raised on the same install.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.cache import (
    _NO_VICTIM_KEY,
    _OVERFLOWABLE_KEY,
    _VICTIM_KEY_BY_CODE,
    VersionedCache,
)
from repro.coherence.hierarchy import MemoryHierarchy
from repro.coherence.states import (
    CODE_EXCLUSIVE,
    CODE_INVALID,
    CODE_MODIFIED,
    CODE_NAMES,
    CODE_OWNED,
    CODE_SM,
    CODE_SO,
    CODE_SS,
    State,
)
from repro.core.config import MachineConfig
from repro.errors import ReproError, SpeculativeOverflowError
from repro.topology import TopologySpec
from repro.txctl.causes import AbortCause

from .test_store_differential import GEOMETRY, ONE_SET_WAYS

#: Every state an install can bring in.
INSTALLABLE = [s.code for s in State if s is not State.INVALID]


# ----------------------------------------------------------------------
# The reference: the two-step install path, every victim handed back
# ----------------------------------------------------------------------

def reference_install_slot(self: VersionedCache, base: int, code: int,
                           data: List[int], mod_vid: int, high_vid: int):
    """The replaced install: returns ``(slot, victims)``, every victim a
    ``(code, addr, data, modVID, highVID)`` column tuple."""
    store = self._store
    state_col = store.state
    mod_col = store.mod_vid
    by_base = self._by_base
    bucket = by_base.get(base)
    if bucket:
        spec = code >= CODE_SM
        i = 0
        while i < len(bucket):
            slot = bucket[i]
            if mod_col[slot] == mod_vid \
                    and (state_col[slot] >= CODE_SM) == spec:
                self._remove_slot(slot)
            else:
                i += 1
    index = self.set_index(base)
    slots = self._sets.get(index)
    if slots is None:
        slots = self._first_list(self._sets, index)
    epoch = self._epoch
    if self._set_epochs.get(index) != epoch:
        process = self._process_lazy_slot
        i = 0
        while i < len(slots):
            if process(slots[i]) is not None:
                i += 1
        self._set_epochs[index] = epoch
    evicted: Tuple = ()
    slot = -1
    spare = None
    assoc = self.assoc
    while len(slots) >= assoc:
        if slot >= 0:
            store.release(slot)
        lru_col = store.lru_tick
        victim = slots[0]
        best = _NO_VICTIM_KEY
        for candidate in slots:
            cand_code = state_col[candidate]
            if cand_code == CODE_INVALID:
                continue
            if cand_code == CODE_SO and mod_col[candidate] == 0:
                key = _OVERFLOWABLE_KEY | lru_col[candidate]
            else:
                key = _VICTIM_KEY_BY_CODE[cand_code] | lru_col[candidate]
            if key < best:
                best = key
                victim = candidate
        slots.remove(victim)
        victim_addr = store.addr[victim]
        victim_bucket = by_base[victim_addr]
        victim_bucket.remove(victim)
        if not victim_bucket:
            del by_base[victim_addr]
            spare = victim_bucket
        victim_code = store.state[victim]
        victim_mod = mod_col[victim]
        if victim_code != CODE_INVALID:
            self.stats.evictions += 1
            if victim_code >= CODE_SM:
                self._spec_lines -= 1
                if victim_code == CODE_SM and victim_mod > 0:
                    self._sm_live -= 1
        evicted += ((victim_code, victim_addr, store.data[victim],
                     victim_mod, store.high_vid[victim]),)
        slot = victim
    if slot < 0:
        slot = store.alloc(base, code, data, mod_vid, high_vid)
    else:
        state_col[slot] = code
        mod_col[slot] = mod_vid
        store.high_vid[slot] = high_vid
        store.addr[slot] = base
        store.data[slot] = data
    store.seen_aborts[slot] = len(self._abort_history)
    store.epoch[slot] = epoch
    slots.append(slot)
    bucket = by_base.get(base)
    if bucket is None:
        if spare is None:
            bucket = self._first_list(by_base, base)
        else:
            bucket = by_base[base] = spare
    bucket.append(slot)
    if code >= CODE_SM:
        self._spec_lines += 1
        if code == CODE_SM and mod_vid > 0:
            self._sm_live += 1
    self._tick += 1
    store.lru_tick[slot] = self._tick
    return slot, evicted


def needs_action(victim) -> bool:
    code = victim[0]
    return not (code <= CODE_EXCLUSIVE or code == CODE_SS)


def reference_install(self: MemoryHierarchy, cache: VersionedCache,
                      base: int, code: int, data: List[int], mod_vid: int,
                      high_vid: int) -> int:
    """The replaced ``_install``: the section 5.4 rules over every victim,
    in eviction order, after the install completes."""
    slot, evicted = reference_install_slot(cache, base, code, data,
                                           mod_vid, high_vid)
    for vcode, addr, vdata, vmod, vhigh in evicted:
        if not needs_action((vcode,)):
            continue
        if cache not in self.llc_slices:
            self._install(self._home_llc(addr), addr, vcode, vdata,
                          vmod, vhigh)
        elif vcode == CODE_MODIFIED or vcode == CODE_OWNED:
            self.memory.write_line(addr, vdata)
        elif vcode == CODE_SO and vmod == 0:
            self.stats.nonspec_overflows += 1
            self.memory.write_line(addr, vdata)
        elif self.overflow_table is not None:
            self.stats.spec_overflow_spills += 1
            table = self.overflow_table
            table.spills += 1
            _, spilled = reference_install_slot(table, addr, vcode, vdata,
                                                vmod, vhigh)
            if spilled:
                code, addr, _, vmod, vhigh = spilled[0]
                raise SpeculativeOverflowError(
                    f"overflow table capacity exceeded evicting "
                    f"{CODE_NAMES[code]}({vmod},{vhigh})", vid=vmod,
                    addr=addr, cause=AbortCause.CAPACITY_OVERFLOW)
        else:
            raise SpeculativeOverflowError(
                f"speculative version {CODE_NAMES[vcode]}({vmod},"
                f"{vhigh}) of 0x{addr:x} evicted past the LLC",
                vid=vmod, addr=addr, cause=AbortCause.CAPACITY_OVERFLOW)
    return slot


class ReferenceHierarchy(MemoryHierarchy):
    _install = reference_install


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------

def cache_state(cache: VersionedCache) -> Dict:
    """Everything an install leaves behind in one cache."""
    store = cache._store
    return {
        "sets": {index: list(slots) for index, slots in cache._sets.items()},
        "buckets": {base: list(b) for base, b in cache._by_base.items()},
        "columns": {slot: (store.state[slot], store.addr[slot],
                           store.mod_vid[slot], store.high_vid[slot],
                           list(store.data[slot]), store.lru_tick[slot],
                           store.epoch[slot], store.seen_aborts[slot])
                    for slots in cache._sets.values() for slot in slots},
        "free": list(store.free_slots),
        "tick": cache._tick,
        "stats": cache.stats,
        "spec_lines": cache._spec_lines,
        "sm_live": cache._sm_live,
    }


def bucket_owners(cache: VersionedCache) -> Dict[int, Tuple[int, List]]:
    """id of each bucket list -> the line it serves, and the list itself
    (held, so that no new list can take a dead one's id)."""
    return {id(bucket): (base, bucket)
            for base, bucket in cache._by_base.items()}


def reused_buckets(cache: VersionedCache,
                   before: Dict[int, Tuple[int, List]]
                   ) -> List[Tuple[int, int]]:
    """``(new line, old line)`` for each bucket that changed lines."""
    return sorted((base, before[id(bucket)][0])
                  for base, bucket in cache._by_base.items()
                  if id(bucket) in before and before[id(bucket)][0] != base)


def hierarchy_state(hierarchy: MemoryHierarchy) -> Dict:
    memory = hierarchy.memory
    return {
        "caches": [cache_state(c) for c in hierarchy._caches],
        "memory": dict(memory._lines),
        "reads": memory.reads,
        "writebacks": memory.writebacks,
        "stats": hierarchy.stats,
        "spills": (hierarchy.overflow_table.spills
                   if hierarchy.overflow_table is not None else None),
    }


# ----------------------------------------------------------------------
# Cache level
# ----------------------------------------------------------------------

def new_install(cache, base, code, data, mod, high):
    """Install through the one path; the victims that needed action."""
    slot, *victim = cache.install_slot(base, code, data, mod, high)
    victims = [tuple(victim)] if victim[0] != CODE_INVALID else []
    assert all(needs_action(v) for v in victims)
    return slot, victims


def reference_cache_install(cache, base, code, data, mod, high):
    slot, evicted = reference_install_slot(cache, base, code, data, mod,
                                           high)
    return slot, [v for v in evicted if needs_action(v)]


def cache_op(cache: VersionedCache, op, install) -> Tuple:
    """Run one op; its canonical result."""
    kind = op[0]
    if kind == "install":
        _, line, code, mod, high, word = op
        before = bucket_owners(cache)
        try:
            slot, victims = install(cache, line * 64, code, [word] * 4,
                                    mod, high)
        except AssertionError:
            return ("assertion",)
        return ("install", slot,
                [(c, a, list(d), m, h) for c, a, d, m, h in victims],
                reused_buckets(cache, before))
    if kind == "inject":
        _, line, code, mod, high, stale = op
        try:
            view = cache._inject_line(line * 64, code, [0] * 4, mod, high,
                                      epoch=-1 if stale else cache._epoch)
        except ValueError:
            return ("full",)
        return ("inject", view.slot)
    if kind == "lookup":
        try:
            return ("lookup", cache.lookup_slot(op[1] * 64, op[2]))
        except AssertionError:
            return ("assertion",)
    if kind == "commit":
        cache.broadcast_commit(op[1])
    elif kind == "abort":
        cache.broadcast_abort()
    else:
        cache.vid_reset()
    return (kind,)


vids = st.integers(min_value=0, max_value=6)
lines = st.integers(min_value=0, max_value=11)


def _install_op(draw):
    code = draw(st.sampled_from(INSTALLABLE))
    if code >= CODE_SM:
        mod = draw(vids)
        high = draw(st.sampled_from([0, mod, mod + draw(vids)]))
    else:
        mod = high = 0
    return ("install", draw(lines), code, mod, high,
            draw(st.integers(0, 99)))


@st.composite
def cache_ops(draw):
    ops = []
    commit_level = 0
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        r = draw(st.integers(min_value=0, max_value=99))
        if r < 55:
            ops.append(_install_op(draw))
        elif r < 63:
            # Injected versions: INVALID ones, and states the protocol
            # never produces (a full set refuses them).
            code = draw(st.sampled_from([CODE_INVALID] + INSTALLABLE))
            mod = draw(vids) if code >= CODE_SM else 0
            ops.append(("inject", draw(lines), code, mod,
                        mod + draw(vids) if code >= CODE_SM else 0,
                        draw(st.booleans())))
        elif r < 78:
            ops.append(("lookup", draw(lines), draw(vids)))
        elif r < 88:
            commit_level += 1
            ops.append(("commit", commit_level))
        elif r < 96:
            ops.append(("abort",))
        else:
            commit_level = 0
            ops.append(("reset",))
    return ops


GEOMETRIES = [dict(size=ways * 64, assoc=ways, line_size=64)
              for ways in ONE_SET_WAYS] + [GEOMETRY]


@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=lambda g: f"{g['size'] // 64 // g['assoc']}"
                                       f"x{g['assoc']}")
@given(ops=cache_ops())
@settings(deadline=None, max_examples=150)
def test_install_slot_agrees_with_the_two_step_path(geometry, ops):
    new = VersionedCache("new", **geometry)
    ref = VersionedCache("ref", **geometry)
    for step, op in enumerate(ops):
        got = cache_op(new, op, new_install)
        want = cache_op(ref, op, reference_cache_install)
        assert got == want, (step, op)
        assert cache_state(new) == cache_state(ref), (step, op)
        new.check_index_integrity()


def test_the_cases_are_reached():
    """The op mix reaches every rare prefix and every victim fate."""
    seen = set()

    def note_new(cache, base, code, data, mod, high):
        index = cache.set_index(base)
        slots = cache._sets.get(index, [])
        if base in cache._by_base:
            seen.add("same-line")
        if cache._set_epochs.get(index) != cache._epoch and slots:
            seen.add("stale set")
        if len(slots) == cache.assoc:
            seen.add("full")
        if any(cache._store.state[s] == CODE_INVALID for s in slots):
            seen.add("invalid resident")
        slot, victims = new_install(cache, base, code, data, mod, high)
        seen.update(CODE_NAMES[v[0]] for v in victims)
        return slot, victims

    @given(ops=cache_ops())
    @settings(deadline=None, max_examples=200, derandomize=True,
              database=None)
    def drive(ops):
        cache = VersionedCache("c", size=4 * 64, assoc=4, line_size=64)
        for op in ops:
            cache_op(cache, op, note_new)

    drive()
    assert {"same-line", "stale set", "full", "invalid resident",
            "S-O", "M", "S-M"} <= seen, seen


# ----------------------------------------------------------------------
# Hierarchy level
# ----------------------------------------------------------------------

def tiny_config(two_socket: bool, unbounded: bool) -> MachineConfig:
    if two_socket:
        return MachineConfig(
            num_cores=2, l1_size=2 * 2 * 64, l1_assoc=2, line_size=64,
            unbounded_sets=unbounded,
            topology=TopologySpec(sockets=2, cores_per_socket=1,
                                  llc_slice_size=2 * 4 * 64,
                                  llc_slice_assoc=4))
    return MachineConfig(num_cores=2, l1_size=2 * 2 * 64, l1_assoc=2,
                         l2_size=2 * 4 * 64, l2_assoc=4, line_size=64,
                         unbounded_sets=unbounded)


@st.composite
def hierarchy_ops(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=50))):
        r = draw(st.integers(min_value=0, max_value=99))
        core = draw(st.integers(0, 1))
        if r < 8:
            # One transaction's stores over a run of lines: capacity.
            ops.append(("burst", core, draw(lines), draw(vids),
                        draw(st.integers(4, 12))))
        elif r < 35:
            ops.append(("store", core, draw(lines), draw(vids),
                        draw(st.integers(0, 99))))
        elif r < 55:
            ops.append(("load", core, draw(lines), draw(vids)))
        elif r < 80:
            # A version of any installable state, straight into an L1 or
            # an LLC, so every victim fate is reached.
            op = _install_op(draw)
            ops.append(("install", draw(st.integers(0, 3))) + op[1:])
        elif r < 86:
            code = draw(st.sampled_from([CODE_INVALID] + INSTALLABLE))
            mod = draw(vids) if code >= CODE_SM else 0
            ops.append(("inject", draw(st.integers(0, 3)), draw(lines),
                        code, mod, mod + draw(vids) if code >= CODE_SM
                        else 0))
        elif r < 94:
            ops.append(("commit", draw(st.integers(1, 6))))
        else:
            ops.append(("abort",))
    return ops


def hierarchy_op(hierarchy: MemoryHierarchy, op) -> Tuple:
    kind = op[0]
    caches = list(hierarchy.l1s) + list(hierarchy.llc_slices)
    if kind == "store":
        _, core, line, vid, value = op
        return hierarchy.store(core, line * 64 + 8, vid, value)
    if kind == "burst":
        _, core, line, vid, count = op
        return [hierarchy.store(core, (line + i) * 64, vid, i)
                for i in range(count)]
    if kind == "load":
        _, core, line, vid = op
        return hierarchy.load(core, line * 64 + 8, vid)
    if kind == "install":
        _, which, line, code, mod, high, word = op
        cache = caches[which % len(caches)]
        if cache.last_level:
            cache = hierarchy._home_llc(line * 64)
        return hierarchy._install(cache, line * 64, code, [word] * 8, mod,
                                  high)
    if kind == "inject":
        _, which, line, code, mod, high = op
        cache = caches[which % len(caches)]
        if cache.last_level:
            cache = hierarchy._home_llc(line * 64)
        try:
            return cache._inject_line(line * 64, code, [1] * 8, mod,
                                      high).slot
        except ValueError:
            return "full"
    if kind == "commit":
        return hierarchy.commit(op[1])
    return hierarchy.abort()


def outcome(hierarchy: MemoryHierarchy, op) -> Tuple:
    try:
        return ("ok", hierarchy_op(hierarchy, op))
    except SpeculativeOverflowError as exc:
        return ("overflow", str(exc), exc.vid, exc.addr)
    except (AssertionError, ReproError) as exc:
        return (type(exc).__name__,)


@pytest.mark.parametrize("two_socket", [False, True],
                         ids=["flat", "two-socket"])
@pytest.mark.parametrize("unbounded", [False, True],
                         ids=["bounded", "unbounded"])
@given(ops=hierarchy_ops())
@settings(deadline=None, max_examples=120)
def test_install_agrees_at_hierarchy_level(two_socket, unbounded, ops):
    new = MemoryHierarchy(tiny_config(two_socket, unbounded))
    ref = ReferenceHierarchy(tiny_config(two_socket, unbounded))
    for step, op in enumerate(ops):
        got = outcome(new, op)
        want = outcome(ref, op)
        assert got == want, (step, op)
        if got[0] != "ok":
            # Both installs completed before the raise: recover as the
            # runtime does and go on comparing.
            new.abort()
            ref.abort()
        assert hierarchy_state(new) == hierarchy_state(ref), (step, op)
        for cache in new._caches:
            cache.check_index_integrity()


def test_capacity_abort_is_raised_on_the_same_install():
    """A speculative LLC victim aborts on the install that evicted it."""
    def run(hierarchy):
        for i in range(40):
            try:
                hierarchy.store(0, 0x1000 + i * 64, 1, i)
            except SpeculativeOverflowError as exc:
                return i, str(exc), exc.vid, exc.addr
        return None

    got = run(MemoryHierarchy(tiny_config(False, False)))
    assert got is not None
    assert got == run(ReferenceHierarchy(tiny_config(False, False)))


def test_inject_refuses_a_full_set():
    """No set ever holds more versions than it has ways: ``_inject_line``
    raises on a full set and leaves the cache as it was."""
    cache = VersionedCache("c", size=2 * 64, assoc=2, line_size=64)
    cache._inject_line(0x000, CODE_MODIFIED, [1] * 8)
    cache._inject_line(0x040, CODE_INVALID, [2] * 8)
    before = cache_state(cache)
    with pytest.raises(ValueError, match="2 ways"):
        cache._inject_line(0x080, CODE_SO, [3] * 8, 0, 1)
    assert cache_state(cache) == before
    cache.check_index_integrity()
