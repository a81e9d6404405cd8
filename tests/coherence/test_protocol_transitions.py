"""Exhaustive and property-based tests of the Figure 4/6/7 state machines.

These are the paper's core correctness artifacts: hit-window rules
(section 4.1), write outcomes (Figure 4), commit transitions (Figure 6),
abort transitions (Figure 7), the VID-reset scrub (section 4.6), and the
snoop responses that forward a version to a peer.  The rules are the
code-level functions of :mod:`repro.coherence.protocol`; most assertions
read them through the ``State``-typed adapters of :mod:`.state_rules`.
"""

import pytest
from hypothesis import given, strategies as st

from repro.coherence.hierarchy import MemoryHierarchy
from repro.core.config import MachineConfig
from repro.obs.trace import ProtocolTracer
from repro.coherence.protocol import (
    WRITE_ABORT,
    WRITE_IN_PLACE,
    WRITE_NEW_VERSION,
    new_version_code,
)
from repro.coherence.states import (
    CODE_MODIFIED,
    CODE_SM,
    CODE_SO,
    LATEST_SPEC_STATES,
    SPECULATIVE_STATES,
    SUPERSEDED_SPEC_STATES,
    State,
    is_speculative,
)

from .state_rules import (
    abort_transition,
    commit_transition,
    read_transition,
    reset_transition,
    version_hits,
    write_outcome,
)

vids = st.integers(min_value=0, max_value=63)
pos_vids = st.integers(min_value=1, max_value=63)


# ----------------------------------------------------------------------
# Hit windows (section 4.1)
# ----------------------------------------------------------------------

class TestVersionHits:
    def test_invalid_never_hits(self):
        assert not version_hits(State.INVALID, 0, 0, 0)
        assert not version_hits(State.INVALID, 0, 0, 5)

    @pytest.mark.parametrize("state", [State.MODIFIED, State.OWNED,
                                       State.EXCLUSIVE, State.SHARED])
    def test_nonspeculative_states_always_hit(self, state):
        for vid in (0, 1, 33, 63):
            assert version_hits(state, 0, 0, vid)

    @pytest.mark.parametrize("state", [State.SM, State.SE])
    def test_latest_versions_hit_at_or_above_modvid(self, state):
        mod = 0 if state is State.SE else 5
        assert version_hits(state, mod, mod, mod)
        assert version_hits(state, mod, mod, mod + 7)
        if mod:
            assert not version_hits(state, mod, mod, mod - 1)

    @pytest.mark.parametrize("state", [State.SO, State.SS])
    def test_superseded_versions_serve_half_open_window(self, state):
        # S-O(2, 5) serves VIDs 2, 3, 4 — not 5 (figure 5's example).
        assert not version_hits(state, 2, 5, 1)
        assert version_hits(state, 2, 5, 2)
        assert version_hits(state, 2, 5, 4)
        assert not version_hits(state, 2, 5, 5)
        assert not version_hits(state, 2, 5, 9)

    def test_figure5_windows(self):
        """The exact version set of Figure 5 instruction 3."""
        versions = [(State.SO, 0, 1), (State.SO, 1, 2), (State.SM, 2, 2)]
        for vid, expected in [(0, 0), (1, 1), (2, 2), (5, 2)]:
            hits = [i for i, (s, m, h) in enumerate(versions)
                    if version_hits(s, m, h, vid)]
            assert hits == [expected]

    @given(st.sampled_from(sorted(SPECULATIVE_STATES, key=str)),
           vids, vids, vids)
    def test_windows_never_hit_below_modvid(self, state, mod, high, vid):
        if version_hits(state, mod, high, vid):
            assert vid >= mod

    @given(vids, pos_vids, vids)
    def test_version_partition_is_disjoint(self, mod_a, width, vid):
        """A superseded version and its successor never both hit."""
        high_a = mod_a + width          # S-O(mod_a, high_a)
        mod_b = high_a                  # S-M(mod_b, ...)
        hit_a = version_hits(State.SO, mod_a, high_a, vid)
        hit_b = version_hits(State.SM, mod_b, mod_b, vid)
        assert not (hit_a and hit_b)
        if vid >= mod_a:
            assert hit_a or hit_b


# ----------------------------------------------------------------------
# Read transitions (Figure 4)
# ----------------------------------------------------------------------

class TestReadTransition:
    def test_clean_line_becomes_se(self):
        assert read_transition(State.EXCLUSIVE, 0, 0, 3) == (State.SE, (0, 3))
        assert read_transition(State.SHARED, 0, 0, 3) == (State.SE, (0, 3))

    def test_dirty_line_becomes_sm(self):
        assert read_transition(State.MODIFIED, 0, 0, 3) == (State.SM, (0, 3))
        assert read_transition(State.OWNED, 0, 0, 3) == (State.SM, (0, 3))

    def test_latest_version_raises_highvid(self):
        assert read_transition(State.SM, 2, 2, 5) == (State.SM, (2, 5))
        assert read_transition(State.SE, 0, 4, 2) == (State.SE, (0, 4))

    def test_superseded_version_is_immutable(self):
        assert read_transition(State.SO, 1, 4, 2) == (State.SO, (1, 4))
        assert read_transition(State.SS, 1, 4, 3) == (State.SS, (1, 4))

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            read_transition(State.INVALID, 0, 0, 1)

    @given(st.sampled_from(sorted(LATEST_SPEC_STATES, key=str)), vids, pos_vids)
    def test_highvid_is_monotone(self, state, high, vid):
        mod = 0 if state is State.SE else min(high, 3)
        _, (_, new_high) = read_transition(state, mod, high, vid)
        assert new_high >= high
        assert new_high >= vid


# ----------------------------------------------------------------------
# Write outcomes (Figure 4 / section 4.3)
# ----------------------------------------------------------------------

class TestWriteOutcome:
    def test_write_to_superseded_version_aborts(self):
        assert write_outcome(State.SO, 1, 3, 2) == WRITE_ABORT
        assert write_outcome(State.SS, 1, 3, 2) == WRITE_ABORT

    def test_write_below_highvid_aborts(self):
        # A logically-later VID already accessed the line (RAW hazard).
        assert write_outcome(State.SM, 2, 6, 4) == WRITE_ABORT
        assert write_outcome(State.SE, 0, 6, 4) == WRITE_ABORT

    def test_same_transaction_rewrites_in_place(self):
        assert write_outcome(State.SM, 4, 4, 4) == WRITE_IN_PLACE

    def test_later_vid_creates_new_version(self):
        assert write_outcome(State.SM, 2, 2, 5) == WRITE_NEW_VERSION
        assert write_outcome(State.SE, 0, 3, 3) == WRITE_NEW_VERSION

    def test_write_to_nonspeculative_creates_version(self):
        for state in (State.MODIFIED, State.EXCLUSIVE, State.OWNED, State.SHARED):
            assert write_outcome(state, 0, 0, 1) == WRITE_NEW_VERSION

    @given(vids, vids, pos_vids)
    def test_no_write_ever_modifies_older_version_silently(self, mod, extra, vid):
        """Any accepted write targets the latest version at or above its
        highVID — the informal 4.3 invariant."""
        high = mod + extra
        outcome = write_outcome(State.SM, mod, high, vid)
        if outcome != WRITE_ABORT:
            assert vid >= high


class TestPlanNewVersion:
    def test_backup_keeps_old_modvid_with_raised_highvid(self):
        plan = new_version_code(CODE_SM, 2, 2, 5)
        assert plan == (CODE_SO, 2, 5, CODE_SM, 5, 5)

    def test_nonspeculative_backup_has_modvid_zero(self):
        plan = new_version_code(CODE_MODIFIED, 0, 0, 3)
        assert plan[1:3] == (0, 3)      # backup S-O(0, 3)
        assert plan[4:] == (3, 3)       # fresh S-M(3, 3)

    def test_rejects_non_new_version_cases(self):
        with pytest.raises(ValueError):
            new_version_code(CODE_SM, 4, 4, 4)  # in-place case

    @given(pos_vids, pos_vids)
    def test_backup_window_excludes_writer(self, mod, delta):
        vid = mod + delta
        _, old_mod, old_high, _, _, _ = new_version_code(CODE_SM, mod, mod,
                                                         vid)
        assert not version_hits(State.SO, old_mod, old_high, vid)
        assert version_hits(State.SO, old_mod, old_high, mod)


# ----------------------------------------------------------------------
# Commit (Figure 6)
# ----------------------------------------------------------------------

class TestCommitTransition:
    def test_fully_committed_latest_versions_become_nonspec(self):
        assert commit_transition(State.SM, 2, 2, 2) == (State.MODIFIED, (0, 0))
        assert commit_transition(State.SE, 0, 2, 2) == (State.EXCLUSIVE, (0, 0))

    def test_fully_committed_superseded_versions_die(self):
        assert commit_transition(State.SO, 0, 1, 1) == (State.INVALID, (0, 0))
        assert commit_transition(State.SS, 1, 2, 5) == (State.INVALID, (0, 0))

    def test_partially_committed_version_zeroes_modvid(self):
        # Figure 5 step 5: S-O(1,2) after commit(1) becomes S-O(0,2).
        assert commit_transition(State.SO, 1, 2, 1) == (State.SO, (0, 2))
        assert commit_transition(State.SM, 2, 7, 3) == (State.SM, (0, 7))

    def test_uncommitted_version_unchanged(self):
        assert commit_transition(State.SM, 5, 7, 3) == (State.SM, (5, 7))

    def test_nonspeculative_untouched(self):
        assert commit_transition(State.MODIFIED, 0, 0, 9) == (State.MODIFIED, (0, 0))

    def test_folding_consecutive_commits(self):
        """Processing commits 1..k lazily in one step must equal stepwise."""
        state, (mod, high) = State.SM, (3, 9)
        for c in range(1, 6):
            state, (mod, high) = commit_transition(state, mod, high, c)
        assert (state, (mod, high)) == commit_transition(State.SM, 3, 9, 5)

    @given(st.sampled_from(sorted(SPECULATIVE_STATES, key=str)),
           vids, vids, vids, vids)
    def test_commit_is_idempotent(self, state, mod, extra, c1, c2):
        high = mod + extra
        once = commit_transition(state, mod, high, c1)
        twice = commit_transition(once[0], *once[1], commit_vid=c1)
        assert once == twice

    @given(st.sampled_from(sorted(SPECULATIVE_STATES, key=str)),
           vids, vids, st.integers(min_value=0, max_value=62))
    def test_commit_order_can_fold(self, state, mod, extra, c):
        """commit(c) then commit(c+1) == commit(c+1) directly (monotone)."""
        high = mod + extra
        step = commit_transition(state, mod, high, c)
        stepped = commit_transition(step[0], *step[1], commit_vid=c + 1)
        folded = commit_transition(state, mod, high, c + 1)
        assert stepped == folded


# ----------------------------------------------------------------------
# Abort (Figure 7) and VID reset (section 4.6)
# ----------------------------------------------------------------------

class TestAbortTransition:
    def test_speculatively_modified_versions_die(self):
        assert abort_transition(State.SM, 3, 3) == (State.INVALID, (0, 0))
        assert abort_transition(State.SO, 2, 5) == (State.INVALID, (0, 0))
        assert abort_transition(State.SS, 1, 4) == (State.INVALID, (0, 0))

    def test_speculatively_read_real_data_survives(self):
        # Deviation from Figure 7 (see protocol.py): survivors land in the
        # *shared* states so stale peer copies can never outlive an owner
        # that claims exclusivity.
        assert abort_transition(State.SM, 0, 4) == (State.OWNED, (0, 0))
        assert abort_transition(State.SE, 0, 4) == (State.SHARED, (0, 0))
        assert abort_transition(State.SO, 0, 4) == (State.OWNED, (0, 0))
        assert abort_transition(State.SS, 0, 4) == (State.SHARED, (0, 0))

    def test_nonspeculative_untouched(self):
        assert abort_transition(State.OWNED, 0, 0) == (State.OWNED, (0, 0))

    @given(st.sampled_from(sorted(SPECULATIVE_STATES, key=str)), vids, vids)
    def test_abort_never_leaves_speculative_state(self, state, mod, extra):
        new_state, (new_mod, new_high) = abort_transition(state, mod, mod + extra)
        assert not is_speculative(new_state)
        assert (new_mod, new_high) == (0, 0)

    @given(st.sampled_from(sorted(SPECULATIVE_STATES, key=str)), vids, vids)
    def test_abort_never_commits_speculative_data(self, state, mod, extra):
        """Dirty speculative data must never survive an abort."""
        if mod > 0:
            new_state, _ = abort_transition(state, mod, mod + extra)
            assert new_state is State.INVALID


class TestResetTransition:
    def test_reset_commits_latest_and_drops_superseded(self):
        assert reset_transition(State.SM, 0, 5) == (State.MODIFIED, (0, 0))
        assert reset_transition(State.SE, 0, 5) == (State.EXCLUSIVE, (0, 0))
        assert reset_transition(State.SO, 0, 5) == (State.INVALID, (0, 0))
        assert reset_transition(State.SS, 2, 5) == (State.INVALID, (0, 0))

    @given(st.sampled_from(sorted(SPECULATIVE_STATES, key=str)), vids, vids)
    def test_reset_clears_all_vids(self, state, mod, extra):
        _, vids_after = reset_transition(state, mod, mod + extra)
        assert vids_after == (0, 0)


class TestSnoopResponse:
    """Which copy a peer receives when a version answers its snoop.

    Decided in ``MemoryHierarchy._receive_from_owner``: driven here
    through a two-core machine whose L1[1] holds one hand-placed version
    and whose core 0 then reads the line.  The responder is the one a
    protocol trace of the load names.
    """

    def _serve(self, state, mod=0, high=0, vid=0):
        hierarchy = MemoryHierarchy(MachineConfig(num_cores=2))
        hierarchy.l1s[1]._inject_line(0x40, state.code, [7] * 8, mod, high)
        tracer = ProtocolTracer.attach(hierarchy)
        hierarchy.load(0, 0x40, vid)
        tracer.detach()
        (load,) = tracer.of_kind("load")
        served_by = load.detail.split()[0][len("hit="):]
        received = hierarchy.l1s[0].lookup(0x40, vid)
        return served_by, received.state

    def test_ss_is_silent(self):
        assert self._serve(State.SS, 1, 5, vid=2)[0] == "memory"

    def test_speculative_owners_hand_out_ss(self):
        for state, mod, high in ((State.SM, 1, 1), (State.SO, 0, 3),
                                 (State.SE, 0, 1)):
            assert self._serve(state, mod, high, vid=2) == ("L1[1]", State.SS)

    def test_nonspeculative_owners_hand_out_shared(self):
        for state in (State.MODIFIED, State.OWNED, State.EXCLUSIVE,
                      State.SHARED):
            assert self._serve(state) == ("L1[1]", State.SHARED)

    def test_invalid_does_not_respond(self):
        assert self._serve(State.INVALID)[0] == "memory"
