"""Tests for the automatic speculative parallelizer (section 8's compiler)."""

import pytest

from repro.compiler import (
    Loop,
    PartitionError,
    build_pdg,
    carried_dependences,
    compile_loop,
    condense,
    may_dependences,
    plan_pipeline,
    remove_speculated,
)
from repro.runtime.paradigms import run_workload
from repro.smtx import ValidationMode, run_smtx


def chase_loop(iterations=24, rare_prob=0.02, manifest_every=None):
    """The canonical target: pointer chase -> parallel work -> reduction.

    ``manifest_every``: if set, the parallel stage *actually* writes the
    speculated location every that-many iterations (testing misspeculation
    detection and recovery); otherwise the may-dependence never manifests.
    """
    loop = Loop("chase", iterations=iterations)
    loop.scalar("cursor", init=7)
    loop.array("fetched")
    loop.array("result")
    loop.scalar("checksum")
    loop.scalar("shared_mode", init=1)

    loop.statement("advance", reads=("cursor",), writes=("cursor",),
                   compute=lambda i, env: {"cursor": (env["cursor"] * 13 + 7) % 4096},
                   work=12, branches=2)
    loop.statement("fetch", reads=("cursor",), writes=("fetched",),
                   compute=lambda i, env: {"fetched": env["cursor"] ^ (i << 4)},
                   work=8)

    def process(i, env):
        out = {"result": (env["fetched"] * 31 + i * env["shared_mode"]) & 0xFFFF}
        if manifest_every and i % manifest_every == manifest_every - 1:
            out["shared_mode"] = 1          # the rare write manifests
        return out

    loop.statement("process", reads=("fetched", "shared_mode"),
                   writes=("result",), maybe_writes={"shared_mode": rare_prob},
                   compute=process, work=250, branches=5)
    loop.statement("emit", reads=("checksum", "result"), writes=("checksum",),
                   compute=lambda i, env: {
                       "checksum": (env["checksum"] * 33 + env["result"]) & 0xFFFFFFFF},
                   ordered=True, work=30)
    return loop


class TestLoopIR:
    def test_interpret_reference(self):
        loop = chase_loop(iterations=4)
        state = loop.interpret()
        assert state["cursor"] != 7           # the chase advanced
        assert len(state["result"]) == 4
        assert state["checksum"] != 0

    def test_duplicate_location_rejected(self):
        loop = Loop("dup", 2)
        loop.scalar("x")
        with pytest.raises(ValueError):
            loop.scalar("x")

    def test_duplicate_statement_rejected(self):
        loop = Loop("dup", 2)
        loop.scalar("x")
        loop.statement("s", writes=("x",), compute=lambda i, e: {"x": 1})
        with pytest.raises(ValueError):
            loop.statement("s", writes=("x",), compute=lambda i, e: {"x": 1})

    def test_undeclared_location_rejected(self):
        loop = Loop("bad", 2)
        with pytest.raises(ValueError):
            loop.statement("s", reads=("ghost",), compute=lambda i, e: {})

    def test_missing_write_detected(self):
        loop = Loop("bad", 2)
        loop.scalar("x")
        loop.statement("s", writes=("x",), compute=lambda i, e: {})
        with pytest.raises(ValueError):
            loop.interpret()

    def test_maybe_write_may_be_absent(self):
        loop = Loop("ok", 3)
        loop.scalar("x", init=5)
        loop.statement("s", reads=("x",), maybe_writes={"x": 0.5},
                       compute=lambda i, e: {"x": 9} if i == 1 else {})
        assert loop.interpret()["x"] == 9


class TestPdg:
    def test_array_dependences_are_intra_iteration(self):
        pdg = build_pdg(chase_loop())
        for dep in carried_dependences(pdg):
            location = dep.location
            assert location in ("cursor", "checksum", "shared_mode")

    def test_scalar_self_dependence_is_carried(self):
        pdg = build_pdg(chase_loop())
        assert any(d.src == d.dst == "advance" and d.carried
                   for d in carried_dependences(pdg))

    def test_may_dependences_carry_probability(self):
        pdg = build_pdg(chase_loop(rare_prob=0.02))
        mays = may_dependences(pdg)
        assert mays and all(d.probability == 0.02 for d in mays)

    def test_speculation_removes_only_low_probability(self):
        pdg = build_pdg(chase_loop(rare_prob=0.02))
        spec, speculated = remove_speculated(pdg, threshold=0.1)
        assert speculated
        assert not may_dependences(spec)
        spec2, speculated2 = remove_speculated(pdg, threshold=0.01)
        assert not speculated2

    def test_condensation_groups_cycles(self):
        loop = Loop("cycle", 4)
        loop.scalar("a"); loop.scalar("b")
        loop.statement("s1", reads=("b",), writes=("a",),
                       compute=lambda i, e: {"a": e["b"] + 1})
        loop.statement("s2", reads=("a",), writes=("b",),
                       compute=lambda i, e: {"b": e["a"] + 1})
        dag, membership = condense(build_pdg(loop))
        assert membership["s1"] == membership["s2"]
        assert dag.number_of_nodes() == 1


class TestPartition:
    def test_canonical_plan(self):
        plan = plan_pipeline(chase_loop())
        assert [s.name for s in plan.stage1] == ["advance"]
        assert [s.name for s in plan.stage2] == ["fetch", "process"]
        assert [s.name for s in plan.stage3] == ["emit"]
        assert plan.profitable
        assert plan.speculated

    def test_without_speculation_parallel_stage_shrinks(self):
        """Keeping the may-dependence pulls 'process' into a carried cycle:
        it lands in the sequential stage and the pipeline stops being
        profitable — exactly why the speculation matters."""
        plan = plan_pipeline(chase_loop(rare_prob=0.5),
                             speculation_threshold=0.1)
        assert not plan.profitable
        assert "process" in [s.name for s in plan.stage1]

    def test_fully_sequential_loop_not_profitable(self):
        loop = Loop("serial", 4)
        loop.scalar("x", init=1)
        loop.statement("only", reads=("x",), writes=("x",),
                       compute=lambda i, e: {"x": e["x"] * 3 % 97})
        plan = plan_pipeline(loop)
        assert not plan.profitable
        assert [s.name for s in plan.stage1] == ["only"]

    def test_reduction_only_loop_runs_in_epilogue(self):
        loop = Loop("reduce", 4)
        loop.array("data", init=3)
        loop.scalar("acc")
        loop.statement("load", reads=("data",), writes=(),
                       compute=lambda i, e: {}, work=50)
        loop.statement("sum", reads=("acc", "data"), writes=("acc",),
                       compute=lambda i, e: {"acc": e["acc"] + e["data"]},
                       ordered=True)
        plan = plan_pipeline(loop)
        assert [s.name for s in plan.stage3] == ["sum"]
        assert not plan.stage1

    def test_describe_mentions_speculation(self):
        text = plan_pipeline(chase_loop()).describe()
        assert "speculated dependences" in text
        assert "stage 2 (parallel): fetch, process" in text


class TestCompiledExecution:
    def test_sequential_matches_interpreter(self):
        workload = compile_loop(chase_loop())
        result = run_workload(workload, paradigm="Sequential")
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_parallel_matches_interpreter(self):
        workload = compile_loop(chase_loop(iterations=32))
        result = run_workload(workload, paradigm="PS-DSWP")
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)
        assert result.system.stats.aborted == 0

    def test_parallel_is_profitable(self):
        seq = run_workload(compile_loop(chase_loop(iterations=32)),
                           paradigm="Sequential")
        par = run_workload(compile_loop(chase_loop(iterations=32)),
                           paradigm="PS-DSWP")
        assert seq.cycles / par.cycles > 1.4

    def test_manifesting_speculation_aborts_and_recovers(self):
        """The rare write really happens: HMTX must detect the violated
        speculation, abort, and recovery must still produce the
        interpreter's exact result."""
        loop = chase_loop(iterations=24, manifest_every=8)
        workload = compile_loop(loop)
        result = run_workload(workload, paradigm="PS-DSWP")
        assert result.system.stats.aborted > 0
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_compiled_workload_runs_on_smtx(self):
        workload = compile_loop(chase_loop(iterations=24))
        result = run_smtx(workload, mode=ValidationMode.MAXIMAL)
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_hmtx_beats_smtx_max_on_compiled_code(self):
        """The paper's bottom line: compiler-grade (maximal) validation is
        affordable on HMTX, ruinous on the software baseline."""
        seq = run_workload(compile_loop(chase_loop(iterations=32)),
                           paradigm="Sequential")
        hmtx = run_workload(compile_loop(chase_loop(iterations=32)),
                            paradigm="PS-DSWP")
        smtx = run_smtx(compile_loop(chase_loop(iterations=32)),
                        mode=ValidationMode.MAXIMAL)
        assert seq.cycles / hmtx.cycles > seq.cycles / smtx.cycles

    def test_compiled_workload_on_directory_machine(self):
        from repro.core import MachineConfig
        workload = compile_loop(chase_loop(iterations=24))
        result = run_workload(
            workload, MachineConfig(num_cores=4, coherence="directory"),
            paradigm="PS-DSWP")
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_address_binding_is_stable(self):
        workload = compile_loop(chase_loop())
        a1 = workload.addr_of("cursor", 0)
        a2 = workload.addr_of("cursor", 5)
        assert a1 == a2                       # scalars are shared
        b1 = workload.addr_of("result", 0)
        b2 = workload.addr_of("result", 1)
        assert b2 - b1 == 64                  # arrays are per-iteration lines

    def test_smtx_minimal_set_is_the_scalars(self):
        workload = compile_loop(chase_loop())
        minimal = workload.smtx_minimal_addresses()
        assert workload.addr_of("cursor", 0) in minimal
        assert workload.addr_of("result", 0) not in minimal


class TestParadigmSelection:
    def doall_loop(self, iterations=24):
        loop = Loop("stencil", iterations=iterations)
        loop.array("cell", init=3)
        loop.array("out")
        loop.scalar("acc")
        loop.statement("smooth", reads=("cell",), writes=("out",),
                       compute=lambda i, e: {"out": (e["cell"] * 5 + i) & 0xFFFF},
                       work=150, branches=3)
        loop.statement("reduce", reads=("acc", "out"), writes=("acc",),
                       compute=lambda i, e: {
                           "acc": (e["acc"] + e["out"]) & 0xFFFFFFFF},
                       ordered=True, work=15)
        return loop

    def test_independent_iterations_get_doall(self):
        plan = plan_pipeline(self.doall_loop())
        assert plan.recommended_paradigm == "DOALL"
        assert not plan.stage1

    def test_pointer_chase_gets_ps_dswp(self):
        plan = plan_pipeline(chase_loop())
        assert plan.recommended_paradigm == "PS-DSWP"

    def test_serial_loop_gets_sequential(self):
        loop = Loop("serial", 4)
        loop.scalar("x", init=1)
        loop.statement("only", reads=("x",), writes=("x",),
                       compute=lambda i, e: {"x": e["x"] * 3 % 97})
        assert plan_pipeline(loop).recommended_paradigm == "Sequential"

    def test_doall_compiled_loop_runs_correctly(self):
        workload = compile_loop(self.doall_loop())
        assert workload.paradigm == "DOALL"
        result = run_workload(workload)
        assert result.paradigm == "DOALL"
        assert workload.observed_result(result.system) == \
            workload.expected_result(result.system)

    def test_doall_beats_pipeline_when_iterations_independent(self):
        seq = run_workload(compile_loop(self.doall_loop(32)),
                           paradigm="Sequential")
        doall = run_workload(compile_loop(self.doall_loop(32)))
        pipeline = run_workload(compile_loop(self.doall_loop(32)),
                                paradigm="PS-DSWP")
        assert seq.cycles / doall.cycles > seq.cycles / pipeline.cycles

    def test_doall_body_refuses_sequential_stage(self):
        workload = compile_loop(chase_loop())
        with pytest.raises(NotImplementedError):
            list(workload.doall_iteration(0))
