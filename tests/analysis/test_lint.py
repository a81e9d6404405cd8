"""The repo lint: each rule on synthetic sources, suppressions, src/ clean."""

import textwrap

from repro.analysis.lint import (LINT_RULES, default_lint_root, lint_paths,
                                 lint_source)


def lint(source, rel="repro/somewhere.py"):
    findings, _ = lint_source(textwrap.dedent(source), rel)
    return findings


def rules_of(findings):
    return [f.rule for f in findings]


class TestCauseStamping:
    def test_unstamped_raise_is_rl001(self):
        findings = lint("""
            def f():
                raise MisspeculationError("boom", vid=3)
            """)
        assert rules_of(findings) == ["RL001"]

    def test_stamped_raise_is_clean(self):
        findings = lint("""
            def f():
                raise SpeculativeOverflowError(
                    "evicted", cause=AbortCause.CAPACITY_OVERFLOW)
            """)
        assert findings == []

    def test_kwargs_splat_counts_as_stamped(self):
        findings = lint("""
            def f(kw):
                raise MisspeculationError("boom", **kw)
            """)
        assert findings == []

    def test_other_exceptions_are_ignored(self):
        assert lint("""
            def f():
                raise ValueError("not a misspeculation")
            """) == []


class TestProtocolPurity:
    def test_container_import_in_protocol_is_rl002(self):
        findings = lint("from ..coherence.cache import VersionedCache\n",
                        rel="repro/coherence/protocol.py")
        assert rules_of(findings) == ["RL002"]

    def test_pure_imports_are_fine(self):
        assert lint("from .states import State\nimport enum\n",
                    rel="repro/coherence/vid.py") == []

    def test_rule_only_applies_to_pure_modules(self):
        assert lint("from ..coherence.hierarchy import MemoryHierarchy\n",
                    rel="repro/txctl/manager.py") == []


class TestSlotsDiscipline:
    def test_undeclared_self_attribute_is_rl003(self):
        findings = lint("""
            class Line:
                __slots__ = ("state", "vid")
                def __init__(self):
                    self.state = 0
                    self.stale = 1
            """)
        assert rules_of(findings) == ["RL003"]
        assert "stale" in findings[0].message

    def test_declared_attributes_are_clean(self):
        assert lint("""
            class Line:
                __slots__ = ("state", "vid")
                def __init__(self):
                    self.state = 0
                    self.vid = 0
            """) == []

    def test_classes_with_opaque_bases_are_skipped(self):
        assert lint("""
            class Line(Base):
                __slots__ = ("state",)
                def __init__(self):
                    self.whatever = 1
            """) == []

    def test_classes_without_slots_are_skipped(self):
        assert lint("""
            class Loose:
                def __init__(self):
                    self.anything = 1
            """) == []


class TestWallClockFreeKeys:
    def test_wall_clock_in_runrequest_is_rl004(self):
        findings = lint("""
            class RunRequest:
                def key(self):
                    return time.time()
            """, rel="repro/experiments/engine.py")
        assert rules_of(findings) == ["RL004"]

    def test_wall_clock_elsewhere_in_engine_is_fine(self):
        assert lint("""
            def measure():
                return time.perf_counter()
            """, rel="repro/experiments/engine.py") == []

    def test_rule_only_applies_to_engine(self):
        assert lint("""
            class RunRequest:
                def key(self):
                    return time.time()
            """, rel="repro/experiments/bench.py") == []


class TestLocalImports:
    def test_function_local_import_is_rl005(self):
        findings = lint("""
            def f():
                import os
                return os
            """)
        assert rules_of(findings) == ["RL005"]

    def test_module_level_import_is_fine(self):
        assert lint("import os\n") == []

    def test_inline_marker_with_reason_suppresses(self):
        assert lint("""
            def f():
                from .heavy import thing  # lint-ok: RL005 (breaks a cycle)
                return thing
            """) == []

    def test_marker_on_the_line_above_suppresses(self):
        assert lint("""
            def f():
                # lint-ok: RL005 (defers the heavy optional stack)
                from .heavy import thing
                return thing
            """) == []

    def test_bare_marker_without_reason_does_not_suppress(self):
        findings = lint("""
            def f():
                import os  # lint-ok: RL005
                return os
            """)
        assert rules_of(findings) == ["RL005"]

    def test_marker_for_another_rule_does_not_suppress(self):
        findings = lint("""
            def f():
                import os  # lint-ok: RL001 (wrong rule)
                return os
            """)
        assert rules_of(findings) == ["RL005"]

    def test_file_pragma_suppresses_file_wide(self):
        assert lint("""
            # lint-file-ok: RL005 (CLI dispatch imports lazily)
            def f():
                import os
                return os
            def g():
                import sys
                return sys
            """) == []


class TestHotPathAllocation:
    def test_list_literal_in_hot_function_is_rl006(self):
        findings = lint("""
            def sweep(self, base):  # hot-path
                acc = []
                return acc
            """)
        assert rules_of(findings) == ["RL006"]

    def test_object_construction_is_rl006(self):
        findings = lint("""
            def access(self, addr):  # hot-path
                view = LineView(self, addr)
                view.touch()
            """)
        assert rules_of(findings) == ["RL006"]

    def test_comprehension_and_closure_are_rl006(self):
        # The sorted() call itself sits in return position (exempt), but
        # the comprehension and the lambda it closes over are churn.
        findings = lint("""
            def scrub(self):  # hot-path
                hits = [s for s in self.slots]
                return sorted(hits, key=lambda s: s.vid)
            """)
        assert rules_of(findings) == ["RL006", "RL006"]
        assert "comprehension" in findings[0].message
        assert "closure" in findings[1].message

    def test_unmarked_function_is_not_policed(self):
        assert lint("""
            def cold(self):
                return [LineView(self, a) for a in self.addrs]
            """) == []

    def test_returned_result_object_is_exempt(self):
        assert lint("""
            def access(self, addr):  # hot-path
                self.hits += 1
                return AccessResult(addr, 1, True, self.name)
            """) == []

    def test_raise_path_is_exempt(self):
        assert lint("""
            def access(self, addr):  # hot-path
                if addr < 0:
                    raise AssertionError(f"bad address {addr:x}")
                self.hits += 1
            """) == []

    def test_marker_on_multiline_signature_is_found(self):
        findings = lint("""
            def access(self, addr,
                       vid):  # hot-path
                tmp = {}
                return tmp
            """)
        assert rules_of(findings) == ["RL006"]

    def test_lint_ok_with_reason_suppresses(self):
        assert lint("""
            def fold(self, base):  # hot-path
                # lint-ok: RL006 (epoch fold: once per epoch, not per access)
                for slot in list(self.bucket):
                    self.process(slot)
            """) == []


class TestOneRepresentation:
    HIER = "repro/coherence/hierarchy.py"

    def test_state_member_in_hierarchy_is_rl009(self):
        findings = lint("""
            def peek(self, cache, slot):
                return cache._store.state[slot] != State.SS.code
            """, rel=self.HIER)
        assert rules_of(findings) == ["RL009"]
        assert "State.SS" in findings[0].message

    def test_line_object_construction_in_directory_is_rl009(self):
        findings = lint("""
            def _fetch(self, base, data):
                line = CacheLine(base, 2, data)
                return self._install(self.l1, line), LineView(self.l1, 0)
            """, rel="repro/coherence/directory.py")
        assert rules_of(findings) == ["RL009", "RL009"]

    def test_view_call_only_in_introspection_helpers(self):
        findings = lint("""
            def _apply(self, l1, slot):
                return l1._view(slot)

            def check_invariants(self, l1, slot):
                assert l1._view(slot) is not None
            """, rel=self.HIER)
        assert rules_of(findings) == ["RL009"]
        assert "_apply" in findings[0].message

    def test_hot_path_function_under_coherence_is_policed(self):
        findings = lint("""
            def sweep(self, slot):  # hot-path
                return self.state[slot] == State.SM.code

            def describe(self, slot):
                return State.SM
            """, rel="repro/coherence/cache.py")
        assert rules_of(findings) == ["RL009"]

    def test_other_packages_are_not_policed(self):
        assert lint("""
            def access(self, slot):  # hot-path
                return State.SM
            """, rel="repro/core/system.py") == []

    def test_lint_ok_with_reason_suppresses(self):
        assert lint("""
            def peek(self):
                return State.SS  # lint-ok: RL009 (planted: display only)
            """, rel=self.HIER) == []


class TestOneTap:
    def test_functools_wraps_is_rl010(self):
        findings = lint("""
            import functools

            def wrap(obj, name):
                original = getattr(obj, name)

                @functools.wraps(original)
                def wrapped(*args):
                    return original(*args)
                return wrapped
            """)
        assert rules_of(findings) == ["RL010"]
        assert "functools.wraps" in findings[0].message

    def test_wraps_import_is_rl010(self):
        assert rules_of(lint("from functools import partial, wraps\n")) \
            == ["RL010"]

    def test_patching_and_restoring_setattr_is_rl010(self):
        findings = lint("""
            class Tracer:
                def attach(self, system):
                    original = system.load

                    def wrapped(tid, addr):
                        return original(tid, addr)
                    setattr(system, "load", wrapped)
                    setattr(system, "store", lambda *a: None)
                    self._originals = {"load": original}

                def detach(self, system):
                    for name in self._originals:
                        setattr(system, name, self._originals[name])
            """)
        assert rules_of(findings) == ["RL010"] * 3

    def test_data_setattr_is_clean(self):
        assert lint("""
            def configure(config, name, count):
                setattr(config, name, 4)
                setattr(config, name + "_label", f"n={count}")
                setattr(config, "sizes", [count, count * 2])
            """) == []

    def test_only_the_tap_is_exempt(self):
        source = """
            import functools

            def install(obj, name, wrapper):
                setattr(obj, name, functools.wraps(wrapper)(wrapper))
            """
        assert lint(source, rel="repro/obs/tap.py") == []
        for rel in ("repro/experiments/phase_profile.py",
                    "repro/trace/capture.py"):
            assert rules_of(lint(source, rel=rel)) == ["RL010", "RL010"]

    def test_lint_ok_with_reason_suppresses(self):
        assert lint("""
            def restore(obj, name, saved):
                setattr(obj, name, saved)  # lint-ok: RL010 (planted: data)
            """) == []


class TestSpinLoops:
    RUNTIME = "repro/runtime/paradigms/doall.py"

    def test_work_spin_loop_is_rl011(self):
        findings = lint("""
            def wait_commit_turn(system, vid):
                spins = 0
                while system.last_committed != vid - 1:
                    spins += 1
                    yield Work(4)
            """, rel=self.RUNTIME)
        assert rules_of(findings) == ["RL011"]
        assert "spin-wait" in findings[0].message

    def test_named_spin_op_loop_is_rl011(self):
        findings = lint("""
            def stage1(system, window):
                while len(system.active_vids) >= window:
                    yield _SPIN_OP
            """, rel="repro/svc/kvstore.py")
        assert rules_of(findings) == ["RL011"]

    def test_spin_until_and_working_loops_are_clean(self):
        assert lint("""
            def wait_commit_turn(system, vid):
                rows = yield from spin_until(
                    lambda: system.last_committed == vid - 1)
                while rows:
                    node = yield Load(rows)
                    yield Work(node)
                    rows -= 1
            """, rel=self.RUNTIME) == []

    def test_other_packages_are_not_policed(self):
        assert lint("""
            def idle():
                while True:
                    yield Work(4)
            """, rel="repro/txctl/fallback.py") == []


class TestWholeTree:
    def test_src_is_lint_clean(self):
        report = lint_paths()
        assert report.ok, "\n".join(f.render() for f in report.findings)
        assert report.coverage["files"] > 50

    def test_syntax_error_is_reported_not_raised(self):
        findings, _ = lint_source("def broken(:\n", "repro/x.py")
        assert rules_of(findings) == ["RL000"]

    def test_rule_catalog_is_documented(self):
        assert set(LINT_RULES) == {"RL001", "RL002", "RL003", "RL004",
                                   "RL005", "RL006", "RL007", "RL008",
                                   "RL009", "RL010", "RL011"}
        assert default_lint_root().name == "repro"

class TestDeterminism:
    def test_key_id_ordering_is_rl007_anywhere(self):
        findings = lint("""
            def helper(nodes):
                return sorted(nodes, key=id)
            """)
        assert rules_of(findings) == ["RL007"]

    def test_sort_method_with_key_id_is_rl007(self):
        findings = lint("""
            def helper(nodes):
                nodes.sort(key=id)
            """)
        assert rules_of(findings) == ["RL007"]

    def test_set_iteration_in_output_function_is_rl007(self):
        findings = lint("""
            def to_json(items):
                return [x for x in {i.name for i in items}]
            """)
        assert rules_of(findings) == ["RL007"]

    def test_set_call_iterated_in_for_loop_is_rl007(self):
        findings = lint("""
            def render_report(rows):
                out = []
                for row in set(rows):
                    out.append(row)
                return out
            """)
        assert rules_of(findings) == ["RL007"]

    def test_sorted_set_in_output_function_is_clean(self):
        assert lint("""
            def to_json(items):
                return [x for x in sorted(set(items))]
            """) == []

    def test_set_iteration_outside_output_paths_is_not_policed(self):
        assert lint("""
            def accumulate(items):
                return sum(x for x in set(items))
            """) == []

    def test_stable_key_function_is_clean(self):
        assert lint("""
            def helper(nodes):
                return sorted(nodes, key=lambda n: n.name)
            """) == []

    def test_marker_with_reason_suppresses_rl007(self):
        assert lint("""
            def digest(items):
                # lint-ok: RL007 (order folds into a commutative xor)
                return [x for x in set(items)]
            """) == []


class TestArtifactWallclock:
    def test_wallclock_in_write_text_function_is_rl008(self):
        findings = lint("""
            def write_report(path, rows):
                stamp = time.time()
                path.write_text(json.dumps({"rows": rows,
                                            "when": stamp}))
            """)
        assert rules_of(findings) == ["RL008"]

    def test_wallclock_in_json_dump_function_is_rl008(self):
        findings = lint("""
            def emit(fh, rows):
                json.dump({"rows": rows,
                           "elapsed": time.perf_counter()}, fh)
            """)
        assert rules_of(findings) == ["RL008"]

    def test_wallclock_near_open_for_write_is_rl008(self):
        findings = lint("""
            def save(path, rows):
                started = time.monotonic()
                with open(path, "w") as fh:
                    fh.write(repr(rows))
            """)
        assert rules_of(findings) == ["RL008"]

    def test_open_for_read_is_not_an_artifact_writer(self):
        assert lint("""
            def load(path):
                waited = time.monotonic()
                with open(path) as fh:
                    return fh.read(), waited
            """) == []

    def test_wallclock_without_write_is_clean(self):
        assert lint("""
            def measure():
                return time.perf_counter()
            """) == []

    def test_write_without_wallclock_is_clean(self):
        assert lint("""
            def write_report(path, rows):
                path.write_text(json.dumps({"rows": rows}))
            """) == []

    def test_marker_with_reason_suppresses_rl008(self):
        assert lint("""
            def write_report(path, rows):
                wall = time.perf_counter()  # lint-ok: RL008 (printed only, never written)
                path.write_text(json.dumps({"rows": rows}))
                print(wall)
            """) == []
