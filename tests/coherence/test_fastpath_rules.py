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
  :meth:`~repro.coherence.vid.CascadedComparator.compare` would.
"""

import pytest

from repro.analysis.modelcheck import reachable
from repro.coherence.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.coherence.line import CacheLine
from repro.coherence.protocol import (
    WRITE_ABORT,
    WRITE_IN_PLACE,
    new_version_code,
    read_transition_code,
    version_hits_code,
    write_outcome_code,
)
from repro.coherence.states import (
    CODE_EXCLUSIVE,
    CODE_MODIFIED,
    CODE_OWNED,
    CODE_SHARED,
    CODE_SM,
    CODE_SS,
    STATE_FROM_CODE,
)
from repro.coherence.vid import DEFAULT_VID_BITS, CascadedComparator
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
    return MemoryHierarchy(HierarchyConfig(
        num_cores=2, l1_size=512, l1_assoc=2, l2_size=2048, l2_assoc=4,
        vid_bits=bits))


def _inject(l1, code, mod, high):
    record = CacheLine(BASE, STATE_FROM_CODE[code], list(range(8)), mod, high)
    record.epoch = l1._epoch         # resident and fully processed
    return l1._inject_line(record)


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
                assert result.value == 1, where
                assert result.sla_required == sla, where
                assert not result.created_version, where
            else:
                expected = _expected_store(code, m, h, a)
                assert aborted == (expected is None), where
                if aborted:
                    assert _resident(l1) == before, where
                    continue
                versions, created = expected
                assert result.created_version == created, where
                assert not result.sla_required, where
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
