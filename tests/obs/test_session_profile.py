"""Session + profiler tests: exact reconciliation, the cycle identity,
spin retags, and the sweep-engine integration."""

from __future__ import annotations

import pytest

from repro.experiments.engine import RunRequest, SweepEngine, execute_request
from repro.obs import hooks
from repro.obs.profile import Attribution, attribute, digest, hot_lines
from repro.obs.session import CATEGORIES, ObsSession
from repro.cpu.isa import SpinUntil, Work
from repro.runtime.paradigms import run_workload, wait_commit_turn
from repro.txctl import ContentionManager, make_policy
from repro.workloads import make_benchmark
from repro.workloads.contended import HighContentionListWorkload


def _observed_contended(scale_nodes: int = 24):
    """The golden contended-list scenario, run under observation."""
    workload = HighContentionListWorkload(nodes=scale_nodes,
                                          rmw_per_iteration=2)
    manager = ContentionManager(policy=make_policy("backoff"))
    session = ObsSession()
    with session.activate():
        result = run_workload(workload, paradigm="PS-DSWP", manager=manager)
    session.detach()
    session.finalize(result)
    return session, result


@pytest.fixture(scope="module")
def contended():
    return _observed_contended()


class TestReconciliation:
    def test_commits_and_aborts_reconcile_exactly(self, contended):
        session, result = contended
        report = session.reconcile(result.system.stats)
        assert report["ok"], report["checks"]
        # The run must actually exercise both paths for this to mean much.
        assert report["checks"]["commits"]["stats"] > 0
        assert report["checks"]["aborts"]["stats"] > 0

    def test_abort_causes_match_txctl_taxonomy(self, contended):
        session, result = contended
        checks = session.reconcile(result.system.stats)["checks"]
        assert checks["aborts_by_cause"]["observed"] \
            == checks["aborts_by_cause"]["stats"]

    def test_reconcile_on_abort_free_run(self):
        workload = make_benchmark("052.alvinn", 0.1)
        session = ObsSession()
        with session.activate():
            result = run_workload(workload)
        session.detach()
        session.finalize(result)
        report = session.reconcile(result.system.stats)
        assert report["ok"], report["checks"]
        assert report["checks"]["aborts"]["observed"] == 0

    def test_metrics_registry_mirrors_lifecycle(self, contended):
        session, result = contended
        counters = session.registry.collect()["counters"]
        assert counters["tx_commits_total"] == result.system.stats.committed
        abort_series = {name: value for name, value in counters.items()
                        if name.startswith("aborts_total{")}
        assert sum(abort_series.values()) == result.system.stats.aborted


class TestAttribution:
    def test_identity_every_thread_sums_to_makespan(self, contended):
        session, _ = contended
        att = attribute(session)
        assert att.identity_ok
        assert att.makespan == session.makespan
        for tid, cats in att.per_thread.items():
            assert sum(cats.values()) == att.makespan, (tid, cats)
        assert att.total_thread_cycles \
            == att.makespan * len(att.per_thread)

    def test_only_known_categories(self, contended):
        session, _ = contended
        att = attribute(session)
        assert set(att.totals) <= set(CATEGORIES)
        assert set(att.categories) <= set(CATEGORIES)

    def test_aborting_run_pays_abort_replay(self, contended):
        session, _ = contended
        att = attribute(session)
        assert att.totals.get("useful", 0) > 0
        assert att.totals.get("abort_replay", 0) > 0

    def test_commit_stall_spins_are_retagged(self):
        # Drive wait_commit_turn directly: it parks on one SpinUntil, and
        # the op samples charged to that spin must come back retagged
        # commit_stall against the waiting VID — and only those.
        session = ObsSession()
        session._current_tid = 7

        class Backend:
            last_committed = 0

        backend = Backend()

        def charge(start, polls, cycles):
            # Mimic the scheduler recording polls as one op sample (a
            # bulk-charged phase when polls > 1).
            session._seq += 1
            session.samples.append(
                [session._seq, 7, start, polls * cycles, 0, None])
            session._tid_sample_idx.setdefault(7, []).append(
                len(session.samples) - 1)

        charge(90, 1, 10)  # an earlier, unrelated op of the same thread
        with session.activate():
            gen = wait_commit_turn(backend, 3)
            op = next(gen)
            assert isinstance(op, SpinUntil)
            assert not op.until()
            charge(100, 1, op.cycles)
            charge(104, 5, op.cycles)
            charge(124, 1, op.cycles)
            assert not op.until()
            backend.last_committed = 2
            assert op.until()
            with pytest.raises(StopIteration):
                gen.send(3)
        spin_rows = session.samples[1:]
        assert session.samples[0][4:] == [0, None]
        assert [row[5] for row in spin_rows] == ["commit_stall"] * 3
        assert [row[4] for row in spin_rows] == [3] * 3
        counters = session.registry.collect()["counters"]
        assert counters['spin_cycles_total{category="commit_stall"}'] \
            == sum(row[3] for row in spin_rows)

    def test_record_spin_of_zero_samples_retags_nothing(self):
        session = ObsSession()
        session._current_tid = 7
        session.samples.append([1, 7, 0, 4, 0, None])
        session._tid_sample_idx[7] = [0]
        session.record_spin("commit_stall", 3, 0)
        assert session.samples == [[1, 7, 0, 4, 0, None]]
        assert not any(name.startswith("spin_cycles_total")
                       for name in session.registry.collect()["counters"])

    def test_spin_branches_yield_identical_op_streams(self):
        # The traced and untraced branches of the spin helper must emit
        # identical op streams (the S6 no-behaviour-change contract), both
        # as yielded and with the spin expanded into its polls.
        def run(observed: bool):
            class Backend:
                last_committed = 0

            backend = Backend()
            raw, expanded = [], []

            def drive():
                gen = wait_commit_turn(backend, 2)
                try:
                    op = next(gen)
                    while True:
                        raw.append((op.__class__, op.cycles))
                        polls = 0
                        while not op.until():
                            expanded.append(Work(op.cycles))
                            polls += 1
                            if polls == 4:
                                backend.last_committed = 1
                        op = gen.send(polls)
                except StopIteration:
                    pass

            if observed:
                with ObsSession().activate():
                    drive()
            else:
                drive()
            return raw, expanded

        observed, unobserved = run(True), run(False)
        assert observed == unobserved
        assert observed == ([(SpinUntil, 4)], [Work(4)] * 4)

    def test_spans_are_well_formed(self, contended):
        session, result = contended
        spans = session.all_spans()
        assert spans
        outcomes = {span.outcome for span in spans}
        assert outcomes <= {"commit", "abort", "squashed", "open",
                            "orphaned"}
        assert sum(1 for s in spans if s.outcome == "commit") \
            == result.system.stats.committed
        for span in spans:
            norm = span.normalized()
            assert norm.allocate_ts <= norm.begin_ts \
                <= norm.exec_end_ts <= norm.end_ts

    def test_digest_schema(self, contended):
        session, result = contended
        d = digest(session, attribute(session))
        assert d["schema"] == "hmtx-obs-digest/1"
        assert d["identity_ok"] is True
        assert d["commits"] == result.system.stats.committed
        assert d["aborts"] == result.system.stats.aborted
        assert sum(d["aborts_by_cause"].values()) == d["aborts"]
        assert d["hot_conflict_lines"]  # contended list -> hot lines exist

    def test_hot_lines_ranking(self):
        ranked = hot_lines({0x100: 3, 0x40: 3, 0x200: 9}, top=2)
        assert ranked == [("0x200", 9), ("0x40", 3)]

    def test_empty_session_attribution(self):
        att = attribute(ObsSession())
        assert isinstance(att, Attribution)
        assert att.identity_ok
        assert att.totals == {}


class TestEngineIntegration:
    def test_execute_request_observed_carries_digest(self):
        request = RunRequest(workload="contended-list", scale=0.25,
                             policy="backoff", observe=True)
        record = execute_request(request)
        assert record.obs_digest is not None
        assert record.obs_digest["schema"] == "hmtx-obs-digest/1"
        assert record.obs_digest["commits"] == record.committed
        assert record.obs_digest["aborts"] == record.aborted
        assert record.obs_digest["identity_ok"] is True
        assert record.to_report()["obs_digest"] == record.obs_digest
        # The hook point must be clean again after the run.
        assert hooks.active is None

    def test_observed_run_is_simulation_identical(self):
        base = execute_request(RunRequest(workload="contended-list",
                                          scale=0.25, policy="backoff"))
        observed = execute_request(RunRequest(workload="contended-list",
                                              scale=0.25, policy="backoff",
                                              observe=True))
        assert observed.cycles == base.cycles
        assert observed.committed == base.committed
        assert observed.aborted == base.aborted
        assert observed.ops_executed == base.ops_executed
        assert base.obs_digest is None

    def test_sweep_engine_observe_flag_and_determinism(self):
        requests = [RunRequest(workload="contended-list", scale=0.25,
                               policy="backoff"),
                    RunRequest(workload="capacity-hog", scale=0.5,
                               policy="capacity-aware")]
        serial = SweepEngine(jobs=1, observe=True).run(requests)
        pooled = SweepEngine(jobs=2, observe=True).run(requests)
        assert [r.to_report() for r in serial] \
            == [r.to_report() for r in pooled]
        assert all(r.obs_digest is not None for r in serial)


class TestHookPoint:
    def test_nested_activation_rejected(self):
        outer = ObsSession()
        with outer.activate():
            with pytest.raises(RuntimeError):
                with ObsSession().activate():
                    pass  # pragma: no cover
        assert hooks.active is None

    def test_detach_restores_originals(self):
        workload = HighContentionListWorkload(nodes=8,
                                              rmw_per_iteration=1)
        session = ObsSession()
        with session.activate():
            result = run_workload(workload, paradigm="PS-DSWP")
        session.detach()
        system = result.system
        # The wrappers carry ``__wrapped__`` (functools.wraps); after
        # detach the restored originals must not.
        for name in ("load", "store", "begin_mtx", "commit_mtx",
                     "allocate_vid", "abort_mtx", "vid_reset"):
            assert not hasattr(getattr(system, name), "__wrapped__"), name
        session.detach()  # idempotent
