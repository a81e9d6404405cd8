"""State-typed views of the code-level protocol rules, for tests.

The simulator keeps one rule set, on integer state codes
(:mod:`repro.coherence.protocol`).  Tests written against the paper's
``State`` vocabulary — ``read_transition(State.SM, ...) == (State.SM,
(m, h))`` — go through these thin adapters, so every assertion exercises
the code-level rules the simulator runs.  They also supply the names the
frozen object-model oracle (``legacy_store.py``) imports; see
``conftest.py``.
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


def install(cache, line):
    """Install a :class:`CacheLine` record; returns the evicted records.

    Works on both the slot-arena cache (column-value ``install_slot``) and
    the object-model oracle (``install``).
    """
    if hasattr(cache, "install_slot"):
        _, evicted = cache.install_slot(line.addr, line.state.code,
                                        line.data, line.mod_vid,
                                        line.high_vid)
        return evicted
    return cache.install(line)
