"""The fused L1 fast path agrees with the code-level protocol rules.

``VersionedCache.lookup_slot`` is the one implementation of the section
4.1 hit window (every access, snoop and directory probe looks up
through it), and ``MemoryHierarchy._access`` inlines the in-place, SLA
and Figure 4 entry decisions on the version it finds instead of calling
:mod:`repro.coherence.protocol`.  These tests pin both to the one rule
set:

* at a 3-bit VID width, a single resident version is placed in an L1 for
  every state code and every reachable ``(modVID, highVID)``; a load and
  a store at every request VID go through ``MemoryHierarchy.load``/
  ``store``, and the hit-or-miss, the abort-or-not outcome, the
  resulting versions and the ``sla_required``/``created_version`` flags
  are checked against the rules;
* at the 3-bit width and at the paper's full 6-bit width, ``lookup_slot``
  finds the version exactly when the window rule says it hits, and
  counts the comparator engagements that
  :meth:`~repro.coherence.vid.CascadedComparator.compare` would;
* at both widths, with a commit or an abort broadcast still pending on
  the version (so ``lookup_slot``'s first exit, for one epoch-current
  non-speculative version, must not take it stale), the lookup finds the
  version the lazy rules fold it to, and a VID-0 load, which
  ``_access`` returns at once on a hit, reads that version's word and
  changes nothing else;
* at both widths, ``lookup_slot``'s exit for one epoch-current
  speculative (or ``INVALID``) version returns the slot, LRU tick and
  comparator counts of the general loop, before and after pending
  broadcasts fold the version.
"""

import pytest

from repro.analysis.modelcheck import reachable
from repro.coherence.hierarchy import MemoryHierarchy
from repro.coherence.protocol import (
    WRITE_ABORT,
    WRITE_IN_PLACE,
    abort_transition_code,
    commit_transition_code,
    new_version_code,
    read_transition_code,
    version_hits_code,
    write_outcome_code,
)
from repro.coherence.states import (
    CODE_EXCLUSIVE,
    CODE_INVALID,
    CODE_MODIFIED,
    CODE_OWNED,
    CODE_SHARED,
    CODE_SE,
    CODE_SM,
    CODE_SO,
    CODE_SS,
    STATE_FROM_CODE,
)
from repro.coherence.vid import DEFAULT_VID_BITS, CascadedComparator
from repro.core.config import MachineConfig
from repro.errors import MisspeculationError

VID_BITS = 3
VIDS = range(1 << VID_BITS)
ADDR = 0x48                      # word 1 of the line at 0x40
BASE = 0x40
STORED = 99

#: Upgrade bus transaction of MOESI: O/S become writable M/E first.
_UPGRADED = {CODE_OWNED: CODE_MODIFIED, CODE_SHARED: CODE_EXCLUSIVE}


def _cases(bits):
    vids = range(1 << bits)
    return [(code, m, h) for code, state in enumerate(STATE_FROM_CODE)
            for m in vids for h in vids if reachable(state, m, h)]


CASES = _cases(VID_BITS)


def _hierarchy(bits=VID_BITS):
    return MemoryHierarchy(MachineConfig(
        num_cores=2, l1_size=512, l1_assoc=2, l2_size=2048, l2_assoc=4,
        vid_bits=bits))


def _inject(l1, code, mod, high):
    # Resident and fully processed: stamped with the current epoch.
    return l1._inject_line(BASE, code, list(range(8)), mod, high,
                           epoch=l1._epoch)


def _machine(code, mod, high):
    hierarchy = _hierarchy()
    l1 = hierarchy.l1s[0]
    _inject(l1, code, mod, high)
    return hierarchy, l1


def _resident(l1):
    store = l1._store
    return sorted((store.state[s], store.mod_vid[s], store.high_vid[s],
                   store.data[s][1]) for s in l1._by_base.get(BASE, ()))


def _access(hierarchy, kind, vid):
    try:
        if kind == "load":
            return hierarchy.load(0, ADDR, vid), False
        return hierarchy.store(0, ADDR, vid, STORED), False
    except MisspeculationError:
        return None, True


def _expected_load(code, m, h, a):
    """(resident versions, sla_required) after a load that hits."""
    if a == 0:
        return [(code, m, h, 1)], False
    marked = read_transition_code(_UPGRADED.get(code, code), m, h, a)
    # An SLA is owed exactly when the load marks the line.
    return [marked + (1,)], marked != (code, m, h)


def _expected_store(code, m, h, a):
    """(resident versions, created_version) after a store that hits, or
    None when the rules say it aborts."""
    if a == 0:
        if code >= CODE_SM:
            return None               # conservative conflict
        return [(CODE_MODIFIED, m, h, STORED)], False
    code = _UPGRADED.get(code, code)
    outcome = write_outcome_code(code, m, h, a)
    if outcome == WRITE_ABORT:
        return None
    if outcome == WRITE_IN_PLACE:
        return [(code, m, max(h, a), STORED)], False
    plan = new_version_code(code, m, h, a)
    return sorted([plan[:3] + (1,), plan[3:] + (STORED,)]), True


@pytest.mark.parametrize("kind", ["load", "store"])
@pytest.mark.parametrize("code", range(len(STATE_FROM_CODE)),
                         ids=[s.value for s in STATE_FROM_CODE])
def test_fast_path_matches_rules(kind, code):
    cases = [c for c in CASES if c[0] == code]
    assert cases
    for _, m, h in cases:
        for a in VIDS:
            hierarchy, l1 = _machine(code, m, h)
            before = _resident(l1)
            result, aborted = _access(hierarchy, kind, a)
            where = (STATE_FROM_CODE[code].value, m, h, a, kind)
            hits = version_hits_code(code, m, h, a)  # LC_VID is 0
            if kind == "store" and code == CODE_SS:
                hits = False          # S-S copies never serve writes
            assert (l1.stats.hits, l1.stats.misses) == \
                ((1, 0) if hits else (0, 1)), where
            if not hits:
                continue
            if kind == "load":
                versions, sla = _expected_load(code, m, h, a)
                assert not aborted, where
                assert result[0] == 1, where
                assert hierarchy.sla_loads == int(sla), where
                assert hierarchy.versions_created == 0, where
            else:
                expected = _expected_store(code, m, h, a)
                assert aborted == (expected is None), where
                if aborted:
                    assert _resident(l1) == before, where
                    continue
                versions, created = expected
                assert hierarchy.versions_created == int(created), where
                assert hierarchy.sla_loads == 0, where
            assert _resident(l1) == versions, where
            hierarchy.check_invariants()


@pytest.mark.parametrize("bits", [VID_BITS, DEFAULT_VID_BITS])
def test_lookup_slot_matches_hit_window(bits):
    """The one hit-window implementation (with its one-version shortcut)
    finds a version iff the rules say the request hits it, at the reduced
    width and at the full 6-bit width, and engages the comparators
    exactly as ``CascadedComparator.compare`` counts them."""
    l1 = _hierarchy(bits).l1s[0]
    reference = CascadedComparator(bits=bits)
    vids = range(1 << bits)
    for code, m, h in _cases(bits):
        view = _inject(l1, code, m, h)
        for a in vids:
            found = l1.lookup_slot(BASE, a) is not None
            assert found == version_hits_code(code, m, h, a), (code, m, h, a)
            if code >= CODE_SM:
                reference.compare(a, m)
                reference.compare(a, h)
        l1.drop(view)
    assert (l1.comparator.fast_comparisons,
            l1.comparator.cascaded_comparisons) == \
        (reference.fast_comparisons, reference.cascaded_comparisons)
    assert reference.cascaded_comparisons > 0


def test_every_state_class_is_exercised():
    assert {code for code, _, _ in CASES} == set(range(len(STATE_FROM_CODE)))
    assert CODE_SS in {code for code, _, _ in CASES}
    assert CODE_EXCLUSIVE in {code for code, _, _ in CASES}


# ----------------------------------------------------------------------
# Lookups and VID-0 loads behind pending lazy events
# ----------------------------------------------------------------------

#: VIDs around the 6-bit comparator's low-half boundaries (low_bits 3)
#: and the ends of the space: the 6-bit cases draw ``modVID``/``highVID``
#: and request VIDs from these.
_EDGES_6 = (0, 1, 2, 7, 8, 9, 31, 32, 33, 55, 56, 62, 63)


def _pending_cases(bits):
    if bits == VID_BITS:
        return CASES
    return [(c, m, h) for c, m, h in _cases(bits)
            if m in _EDGES_6 and h in _EDGES_6]


def _events(bits, m, h):
    """Pending broadcasts: ``(commit VID or None, abort after it)``."""
    top = (1 << bits) - 1
    commits = (range(1, top + 1) if bits == VID_BITS else
               sorted({v for v in (1, m - 1, m, m + 1, h - 1, h, h + 1, top)
                       if 1 <= v <= top}))
    return ([(None, True)] + [(c, False) for c in commits]
            + [(c, True) for c in commits])


def _requests(bits, m, h, commit):
    if bits == VID_BITS:
        return range(1 << bits)
    top = (1 << bits) - 1
    near = (m - 1, m, m + 1, h - 1, h, h + 1, commit or 0, (commit or 0) + 1)
    return sorted({v for v in _EDGES_6 + near if 0 <= v <= top})


def _folded(code, m, h, commit, abort):
    """What the lazy rules leave of ``(code, m, h)`` after a commit of
    ``commit`` (if any) and then an abort (if any); a speculative version
    folded to INVALID leaves the cache."""
    tags = (code, m, h)
    if code >= CODE_SM:
        lc = commit or 0
        tags = commit_transition_code(*tags, lc)
        if abort and tags[0] >= CODE_SM:
            tags = abort_transition_code(*tags)
            if tags[0] >= CODE_SM:
                tags = commit_transition_code(*tags, lc)
    return tags


def _behind_events(bits, code, m, h, commit, abort):
    """A machine whose core-0 L1 holds ``(code, m, h)`` with the commit
    and abort broadcasts still pending on it."""
    hierarchy = _hierarchy(bits)
    l1 = hierarchy.l1s[0]
    _inject(l1, code, m, h)
    if commit is not None:
        hierarchy.commit(commit)
    if abort:
        hierarchy.abort()
    return hierarchy, l1


@pytest.mark.parametrize("bits", [VID_BITS, DEFAULT_VID_BITS])
def test_lookup_folds_pending_events_first(bits):
    for code, m, h in _pending_cases(bits):
        for commit, abort in _events(bits, m, h):
            folded = _folded(code, m, h, commit, abort)
            for a in _requests(bits, m, h, commit):
                _, l1 = _behind_events(bits, code, m, h, commit, abort)
                where = (STATE_FROM_CODE[code].value, m, h, commit, abort, a)
                slot = l1.lookup_slot(BASE, a)
                eff = a if a else l1.lc_vid
                assert (slot is not None) == \
                    version_hits_code(*folded, eff), where
                if code >= CODE_SM and folded[0] == CODE_INVALID:
                    assert BASE not in l1._by_base, where
                    continue
                (only,) = l1._by_base[BASE]
                store = l1._store
                assert (store.state[only], store.mod_vid[only],
                        store.high_vid[only]) == folded, where
                assert store.epoch[only] == l1._epoch, where


@pytest.mark.parametrize("bits", [VID_BITS, DEFAULT_VID_BITS])
def test_vid0_read_hit_returns_the_folded_word(bits):
    for code, m, h in _pending_cases(bits):
        for commit, abort in [(None, False)] + _events(bits, m, h):
            hierarchy, l1 = _behind_events(bits, code, m, h, commit, abort)
            folded = _folded(code, m, h, commit, abort)
            where = (STATE_FROM_CODE[code].value, m, h, commit, abort)
            hits = version_hits_code(*folded, l1.lc_vid)
            value, latency = hierarchy.load(0, ADDR, 0)
            assert (l1.stats.hits, l1.stats.misses) == \
                ((1, 0) if hits else (0, 1)), where
            assert (hierarchy.stats.loads, hierarchy.stats.spec_loads) \
                == (1, 0), where
            if not hits:
                continue
            assert (value, latency) == (1, l1.hit_latency), where
            assert hierarchy.sla_loads == hierarchy.versions_created == 0
            assert _resident(l1) == [folded + (1,)], where
            assert hierarchy.stats.bus_snoops == 0, where


# ----------------------------------------------------------------------
# The lone-version exits against the general loop
# ----------------------------------------------------------------------

def _general_lookup(cache, base, req_vid):
    """``lookup_slot`` without its lone-version exits: fold a stale
    bucket, then test every version against the window rule, counting
    two comparator engagements per speculative one as
    ``CascadedComparator.compare`` does."""
    bucket = cache._by_base.get(base)
    if not bucket:
        return None
    store = cache._store
    if any(store.epoch[slot] != cache._epoch for slot in bucket):
        bucket = cache._process_bucket(base)
        if bucket is None:
            return None
    eff = req_vid if req_vid else cache.lc_vid
    hits = []
    for slot in bucket:
        code, mod, high = (store.state[slot], store.mod_vid[slot],
                           store.high_vid[slot])
        if code >= CODE_SM:
            cache.comparator.compare(eff, mod)
            cache.comparator.compare(eff, high)
        if version_hits_code(code, mod, high, eff):
            hits.append(slot)
    assert len(hits) <= 1
    if not hits:
        return None
    cache._tick += 1
    store.lru_tick[hits[0]] = cache._tick
    return hits[0]


def _observe(l1, slot):
    store = l1._store
    return (slot, l1._tick,
            None if slot is None else store.lru_tick[slot],
            l1.comparator.fast_comparisons,
            l1.comparator.cascaded_comparisons, _resident(l1))


def _lone_exit_code(l1):
    """The code of the version ``lookup_slot``'s speculative-or-INVALID
    lone-version exit would take now, or None."""
    bucket = l1._by_base.get(BASE)
    if not bucket or len(bucket) != 1:
        return None
    (slot,) = bucket
    code = l1._store.state[slot]
    if l1._store.epoch[slot] != l1._epoch or CODE_INVALID < code < CODE_SM:
        return None
    return code


@pytest.mark.parametrize("bits", [VID_BITS, DEFAULT_VID_BITS])
def test_lone_version_exit_matches_the_general_loop(bits):
    taken = {}
    for code, m, h in _pending_cases(bits):
        if CODE_INVALID < code < CODE_SM:
            continue
        for commit, abort in [(None, False)] + _events(bits, m, h):
            _, fast = _behind_events(bits, code, m, h, commit, abort)
            _, reference = _behind_events(bits, code, m, h, commit, abort)
            # The first lookup folds what is pending; the rest find the
            # version epoch-current.
            for a in _requests(bits, m, h, commit):
                where = (STATE_FROM_CODE[code].value, m, h, commit, abort, a)
                lone = _lone_exit_code(fast)
                slot = fast.lookup_slot(BASE, a)
                expected = _general_lookup(reference, BASE, a)
                assert _observe(fast, slot) == \
                    _observe(reference, expected), where
                if lone is not None:
                    key = (lone, slot is not None)
                    taken[key] = taken.get(key, 0) + 1
    # Every speculative code hits through the exit, every one but S-E
    # (reachable only as ``S-E(0, h)``, which every VID hits) misses
    # through it too, and a lone INVALID version misses through it.
    for spec in (CODE_SM, CODE_SE, CODE_SO, CODE_SS):
        assert taken.get((spec, True)), spec
        assert taken.get((spec, False)) or spec == CODE_SE, spec
    assert taken.get((CODE_INVALID, False))
