"""The protocol model checker: full-space pass, coverage, counterexamples.

The mutation tests are the checker's own test: a deliberately broken
protocol (one flipped comparison — exactly the off-by-one class the
paper's windows invite) must produce a counterexample, or the checker
proves nothing.
"""

from types import SimpleNamespace

from repro.analysis.modelcheck import RULE_NAMES, check_protocol, reachable
from repro.coherence import cache, hierarchy, protocol
from repro.coherence.protocol import WRITE_ABORT, WRITE_NEW_VERSION
from repro.coherence.states import (
    CODE_SE,
    CODE_SM,
    CODE_SO,
    CODE_SS,
    CODE_MODIFIED,
    State,
)


def _real_protocol_namespace():
    """The executed rule set, one attribute per rule the checker binds."""
    return SimpleNamespace(**{name: getattr(protocol, name)
                              for name in RULE_NAMES})


class TestFullSpace:
    def test_protocol_is_clean_over_the_full_6bit_space(self):
        report = check_protocol(vid_bits=6)
        assert report.ok, "\n".join(f.render() for f in report.findings)
        assert report.coverage["violations"] == 0

    def test_coverage_counts_match_the_closed_form(self):
        """The checker must actually have enumerated the whole space."""
        report = check_protocol(vid_bits=6)
        n = 1 << 6
        assert report.coverage["tuples_enumerated"] == len(State) * n * n
        # Reachable version tuples: S-M/S-S carry 0<=m<=h (h>=1), S-O
        # strictly m<h, S-E m=0, and the five non-speculative states
        # exactly (0,0).
        tri = sum(h + 1 for h in range(1, n))      # S-M and S-S each
        strict = sum(h for h in range(1, n))       # S-O
        expected = 2 * tri + strict + (n - 1) + 5
        assert report.coverage["version_tuples_reachable"] == expected
        # Every reachable version tuple was probed with every request VID.
        assert report.coverage["request_tuples_checked"] == expected * n

    def test_small_space_is_also_clean(self):
        assert check_protocol(vid_bits=3).ok

    def test_checker_binds_the_rules_the_simulator_executes(self):
        """No checker-only copy: the hierarchy and the cache folds call
        the very function objects MC001-MC008 enumerate."""
        assert hierarchy.read_transition_code is protocol.read_transition_code
        assert hierarchy.write_outcome_code is protocol.write_outcome_code
        assert hierarchy.new_version_code is protocol.new_version_code
        assert cache.commit_transition_code \
            is protocol.commit_transition_code
        assert cache.abort_transition_code is protocol.abort_transition_code
        assert cache.reset_transition_code is protocol.reset_transition_code

    def test_reachable_matches_the_documented_constraints(self):
        assert reachable(State.SM, 2, 5) and reachable(State.SM, 0, 1)
        assert not reachable(State.SM, 3, 2)
        assert reachable(State.SE, 0, 4) and not reachable(State.SE, 1, 4)
        assert reachable(State.SO, 2, 5) and not reachable(State.SO, 5, 5)
        assert reachable(State.MODIFIED, 0, 0)
        assert not reachable(State.MODIFIED, 0, 1)


class TestMutationsAreCaught:
    """Each seeded bug must yield a counterexample with the right rule."""

    def _check_mutant(self, **overrides):
        mutant = _real_protocol_namespace()
        for name, fn in overrides.items():
            setattr(mutant, name, fn)
        return check_protocol(vid_bits=4, protocol=mutant)

    def test_off_by_one_hit_window_is_caught(self):
        def bad_hits(code, m, h, a):
            if code in (CODE_SO, CODE_SS):
                return m <= a <= h  # inclusive upper bound: wrong
            return protocol.version_hits_code(code, m, h, a)

        report = self._check_mutant(version_hits_code=bad_hits)
        assert not report.ok
        rules = {f.rule for f in report.findings}
        assert "MC001" in rules
        counterexample = next(f for f in report.findings
                              if f.rule == "MC001")
        assert "S" in counterexample.where  # names the exact state tuple

    def test_missed_dependence_abort_is_caught(self):
        def bad_write(code, m, h, a):
            outcome = protocol.write_outcome_code(code, m, h, a)
            if outcome == WRITE_ABORT and code in (CODE_SM, CODE_SE):
                return WRITE_NEW_VERSION  # ignores a < highVID
            return outcome

        report = self._check_mutant(write_outcome_code=bad_write)
        assert not report.ok
        assert any(f.rule == "MC003" for f in report.findings)

    def test_eager_commit_fold_divergence_is_caught(self):
        def bad_commit(code, m, h, c):
            # Drops the modVID<=c generalisation: only the exact match
            # folds, so processing a backlog lazily diverges.
            if code >= CODE_SM and c < h and 0 < m < c:
                return code, m, h
            return protocol.commit_transition_code(code, m, h, c)

        report = self._check_mutant(commit_transition_code=bad_commit)
        assert not report.ok
        assert any(f.rule == "MC006" for f in report.findings)

    def test_leaky_abort_is_caught(self):
        def bad_abort(code, m, h):
            if code == CODE_SO:
                return code, m, h  # leaves speculative state behind
            return protocol.abort_transition_code(code, m, h)

        report = self._check_mutant(abort_transition_code=bad_abort)
        assert not report.ok
        assert any(f.rule == "MC007" for f in report.findings)

    def test_counterexamples_are_capped_but_counted(self):
        def always_hits(code, m, h, a):
            return True

        report = self._check_mutant(version_hits_code=always_hits)
        assert not report.ok
        mc001 = [f for f in report.findings if f.rule == "MC001"]
        assert len(mc001) <= 5
        assert report.coverage["violations"] > len(mc001)

    def test_chain_overlap_is_caught(self):
        def bad_hits(code, m, h, a):
            if code == CODE_SO:
                return m <= a <= h  # backup also serves its successor
            return protocol.version_hits_code(code, m, h, a)

        report = self._check_mutant(version_hits_code=bad_hits)
        assert any(f.rule == "MC002" for f in report.findings)

    def test_skewed_backup_window_is_caught(self):
        def bad_new_version(code, m, h, a):
            plan = protocol.new_version_code(code, m, h, a)
            return plan[:2] + (a + 1,) + plan[3:]  # backup overlaps S-M(a,a)

        report = self._check_mutant(new_version_code=bad_new_version)
        assert any(f.rule == "MC004" for f in report.findings)

    def test_lost_read_mark_is_caught(self):
        def bad_read(code, m, h, a):
            if code in (CODE_SM, CODE_SE):
                return code, m, h  # forgets to raise highVID
            return protocol.read_transition_code(code, m, h, a)

        report = self._check_mutant(read_transition_code=bad_read)
        assert any(f.rule == "MC005" for f in report.findings)

    def test_stale_epoch_after_reset_is_caught(self):
        def bad_reset(code, m, h):
            if code == CODE_SM:
                return CODE_MODIFIED, 0, h  # keeps an old-epoch highVID
            return protocol.reset_transition_code(code, m, h)

        report = self._check_mutant(reset_transition_code=bad_reset)
        assert any(f.rule == "MC008" for f in report.findings)


class TestStructuredCounterexamples:
    """MC findings carry the exact input tuple machine-readably."""

    def _mutant_report(self):
        mutant = _real_protocol_namespace()

        def bad_hits(code, m, h, a):
            if code in (CODE_SO, CODE_SS):
                return m <= a <= h
            return protocol.version_hits_code(code, m, h, a)

        mutant.version_hits_code = bad_hits
        return check_protocol(vid_bits=4, protocol=mutant)

    def test_mc001_counterexample_is_the_input_tuple(self):
        report = self._mutant_report()
        finding = next(f for f in report.findings if f.rule == "MC001")
        doc = finding.counterexample
        assert doc is not None
        assert doc["schema"] == "hmtx-modelcheck-counterex/1"
        assert doc["rule"] == "MC001"
        # The tuple replays: the spec and the mutant disagree on it.
        state = State(doc["state"])
        m, h, a = doc["mod_vid"], doc["high_vid"], doc["request_vid"]
        assert state in (State.SO, State.SS) and a == h  # the off-by-one

    def test_counterexample_lands_in_json_only_when_present(self):
        clean = check_protocol(vid_bits=4)
        assert clean.ok
        assert all("counterexample" not in f.to_json()
                   for f in clean.findings)
        broken = self._mutant_report()
        jsons = [f.to_json() for f in broken.findings]
        assert any("counterexample" in j for j in jsons)

    def test_structure_pass_findings_carry_counterexamples(self):
        from repro.coherence.directory import DirectoryConfig, DirectoryHierarchy
        from repro.topology import TopologySpec
        from repro.analysis.modelcheck import check_topology_structure

        class BrokenHome(DirectoryHierarchy):
            def _home_llc(self, addr):
                good = super()._home_llc(addr)
                index = self.llc_slices.index(good)
                return self.llc_slices[(index + 1) % len(self.llc_slices)]

        def factory():
            return BrokenHome(DirectoryConfig(
                num_cores=8, l1_size=16 * 64, l1_assoc=2,
                topology=TopologySpec(sockets=2, cores_per_socket=4)))

        report = check_topology_structure(hierarchy_factory=factory)
        assert not report.ok
        docs = [f.counterexample for f in report.findings]
        assert all(d is not None and d["schema"]
                   == "hmtx-modelcheck-counterex/1" for d in docs)
        assert all("assertion" in d and "step" in d for d in docs)
