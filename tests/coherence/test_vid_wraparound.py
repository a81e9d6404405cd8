"""VID-shift invariance of the protocol decision functions (hypothesis).

The paper's section 4.6 VID-reset argument rests on the protocol caring
only about the *relative order* of VIDs, never their absolute values: a
recycled namespace behaves identically to a fresh one.  These property
tests state that directly — uniformly shifting every nonzero VID in a
decision's inputs (keeping them inside the m=6-bit namespace, with 0
staying 0 because VID 0 *is* the non-speculative marker) must not change
any hit/miss decision, write classification, or transition result.

The model checker (``repro.analysis.modelcheck``) proves the invariants
pointwise over the whole space; these tests prove the *symmetry* that
makes the VID-reset protocol sound.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.modelcheck import reachable
from repro.coherence.states import State

from . import state_rules as protocol

MAX_VID = (1 << 6) - 1


def shift(vid: int, delta: int) -> int:
    """Uniform namespace shift: VID 0 (non-speculative) is a fixed point."""
    return 0 if vid == 0 else vid + delta


@st.composite
def version_request_and_shift(draw):
    """A reachable version tuple, a request VID, and a legal shift.

    Tuples are built constructively from the per-state reachability
    constraints (S-E carries ``modVID == 0``, S-O strictly ``m < h``,
    non-speculative lines ``(0, 0)``), cross-checked against the model
    checker's :func:`reachable` predicate.
    """
    state = draw(st.sampled_from(list(State)))
    if state is State.SE:
        m, h = 0, draw(st.integers(1, MAX_VID - 1))
    elif state is State.SO:
        h = draw(st.integers(1, MAX_VID - 1))
        m = draw(st.integers(0, h - 1))
    elif state.speculative:  # S-M / S-S
        h = draw(st.integers(1, MAX_VID - 1))
        m = draw(st.integers(0, h))
    else:
        m = h = 0
    assert reachable(state, m, h)
    a = draw(st.integers(0, MAX_VID - 1))
    delta = draw(st.integers(0, MAX_VID - max(m, h, a)))
    return state, m, h, a, delta


@settings(max_examples=300)
@given(version_request_and_shift())
def test_hit_window_is_shift_invariant(case):
    state, m, h, a, delta = case
    assert protocol.version_hits(state, shift(m, delta), shift(h, delta),
                                 shift(a, delta)) \
        == protocol.version_hits(state, m, h, a)


@settings(max_examples=300)
@given(version_request_and_shift())
def test_write_outcome_is_shift_invariant(case):
    state, m, h, a, delta = case
    assert protocol.write_outcome(state, shift(m, delta), shift(h, delta),
                                  shift(a, delta)) \
        == protocol.write_outcome(state, m, h, a)


@settings(max_examples=300)
@given(version_request_and_shift())
def test_read_transition_is_shift_equivariant(case):
    state, m, h, a, delta = case
    assume(a > 0 and protocol.version_hits(state, m, h, a))
    base_state, (bm, bh) = protocol.read_transition(state, m, h, a)
    got_state, (gm, gh) = protocol.read_transition(
        state, shift(m, delta), shift(h, delta), shift(a, delta))
    assert got_state is base_state
    assert (gm, gh) == (shift(bm, delta), shift(bh, delta))


@settings(max_examples=300)
@given(version_request_and_shift())
def test_commit_transition_is_shift_equivariant(case):
    state, m, h, c, delta = case
    assume(c > 0)
    base_state, (bm, bh) = protocol.commit_transition(state, m, h, c)
    got_state, (gm, gh) = protocol.commit_transition(
        state, shift(m, delta), shift(h, delta), shift(c, delta))
    assert got_state is base_state
    assert (gm, gh) == (shift(bm, delta), shift(bh, delta))


@settings(max_examples=300)
@given(version_request_and_shift())
def test_reset_scrubs_every_reachable_version(case):
    """Section 4.6: after a reset no VID from the old epoch survives, so a
    recycled namespace cannot alias stale versions regardless of shift."""
    state, m, h, _, delta = case
    new_state, vids = protocol.reset_transition(
        state, shift(m, delta), shift(h, delta))
    assert vids == (0, 0)
    assert not new_state.speculative
