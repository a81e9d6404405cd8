"""State-typed views of the code-level protocol rules, for tests.

The simulator keeps one rule set, on integer state codes
(:mod:`repro.coherence.protocol`).  Tests written against the paper's
``State`` vocabulary — ``read_transition(State.SM, ...) == (State.SM,
(m, h))`` — go through these thin adapters, so every assertion exercises
the code-level rules the simulator runs.  They also supply the rules
the frozen object-model oracle (``legacy_store.py``) imports.
:func:`install` and :func:`inject` turn the oracle's
``CacheLine`` records into the column values the slot-arena cache takes
and hands back.
"""

from repro.coherence.cache import (
    _PRIORITY_SPEC_OVERFLOWABLE,
    _VICTIM_CLASS_BY_CODE,
)
from repro.coherence.protocol import (
    abort_transition_code,
    commit_transition_code,
    read_transition_code,
    reset_transition_code,
    version_hits_code,
    write_outcome_code,
)
from repro.coherence.states import STATE_FROM_CODE, State

from .legacy_line import CacheLine


def _typed(version):
    code, mod, high = version
    return STATE_FROM_CODE[code], (mod, high)


def version_hits(state, mod_vid, high_vid, req_vid):
    return version_hits_code(state.code, mod_vid, high_vid, req_vid)


def read_transition(state, mod_vid, high_vid, req_vid):
    return _typed(read_transition_code(state.code, mod_vid, high_vid,
                                       req_vid))


def write_outcome(state, mod_vid, high_vid, req_vid):
    """The ``WRITE_*`` outcome code of a write hitting ``state``."""
    return write_outcome_code(state.code, mod_vid, high_vid, req_vid)


def commit_transition(state, mod_vid, high_vid, commit_vid):
    return _typed(commit_transition_code(state.code, mod_vid, high_vid,
                                         commit_vid))


def abort_transition(state, mod_vid, high_vid):
    return _typed(abort_transition_code(state.code, mod_vid, high_vid))


def reset_transition(state, mod_vid, high_vid):
    return _typed(reset_transition_code(state.code, mod_vid, high_vid))


def victim_priority(line):
    """Eviction priority class of a line record (lower evicts first)."""
    if line.state is State.SO and line.mod_vid == 0:
        return _PRIORITY_SPEC_OVERFLOWABLE
    return _VICTIM_CLASS_BY_CODE[line.state.code]


def record(victim):
    """A detached :class:`CacheLine` record of an eviction's column values
    ``(code, addr, data, modVID, highVID)``."""
    code, addr, data, mod_vid, high_vid = victim
    return CacheLine(addr, STATE_FROM_CODE[code], data, mod_vid, high_vid)


#: Victims that leave silently at every level: INVALID, clean
#: non-speculative and ``S-S`` versions.
SILENT_CODES = frozenset(
    s.code for s in (State.INVALID, State.SHARED, State.EXCLUSIVE, State.SS))


def install(cache, line):
    """Install a :class:`CacheLine` record; returns the records of the
    victims that need action below the cache, in eviction order.

    Works on both the slot-arena cache (column-value ``install_slot``,
    which hands back at most one such victim) and the object-model oracle
    (``install``, whose silent victims are dropped here).  Either way the
    records carry exactly the column values a victim takes down the miss
    path; its lazy stamps and LRU tick are local to the cache it left, so
    they come back at their defaults.
    """
    if hasattr(cache, "install_slot"):
        slot, *victim = cache.install_slot(line.addr, line.state.code,
                                           line.data, line.mod_vid,
                                           line.high_vid)
        evicted = [victim] if victim[0] != State.INVALID.code else []
    else:
        evicted = [(v.state.code, v.addr, v.data, v.mod_vid, v.high_vid)
                   for v in cache.install(line)
                   if v.state.code not in SILENT_CODES]
    return [record(victim) for victim in evicted]


def inject(cache, line):
    """Force a :class:`CacheLine` record in through ``_inject_line``."""
    return cache._inject_line(line.addr, line.state.code, line.data,
                              line.mod_vid, line.high_vid, line.epoch)
