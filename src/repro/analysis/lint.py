"""Repo-specific AST lint: conventions a generic linter cannot know.

Each rule encodes an invariant this codebase relies on for correctness
(not style).  Violations are errors; a deliberate exception is recorded
in-source with a suppression marker so the reason survives review:

* ``# lint-ok: RL005 (why this is fine)`` on the offending line or the
  line directly above suppresses one rule at that site;
* ``# lint-file-ok: RL005 (why)`` anywhere in a file suppresses the rule
  for the whole file (used by ``__main__.py``, whose lazy subcommand
  imports are its documented dispatch pattern).

Both forms **require** the parenthesised reason — a bare marker does not
suppress anything.

Rule catalog (details in DESIGN.md section 10):

``RL001`` misspeculation raises must stamp ``cause=``
    Every ``raise MisspeculationError(...)`` / ``SpeculativeOverflowError``
    site must pass the ``cause=`` keyword.  The constructor requires it
    too; the rule reports an omission before the site ever runs.
``RL002`` protocol module purity
    ``coherence/protocol.py``, ``states.py`` and ``vid.py`` are pure
    transition math over ``(state, modVID, highVID, requestVID)``; they
    must not import the stateful container/runtime layers, or the model
    checker's exhaustive enumeration stops being a proof about them.
``RL003`` ``__slots__`` discipline
    A class declaring ``__slots__`` must only assign declared attributes
    on ``self`` — a typo'd attribute would raise ``AttributeError`` at
    runtime on the protocol hot path instead of failing here.
``RL004`` wall-clock-free cache keys
    ``RunRequest`` and the sweep engine's digest/key helpers must never
    read wall-clock time; the deterministic-sweep cache contract requires
    ``key()`` to be a pure function of the request.
``RL005`` function-local imports need a documented reason
    Imports belong at module top level; a function-local import is only
    acceptable to break a cycle or defer a heavy optional stack, and the
    marker must say which.
``RL006`` no per-access allocation in ``# hot-path`` functions
    A function whose ``def`` line carries a ``# hot-path`` marker runs
    per simulated memory access; container literals, comprehensions,
    closures and object constructions inside it are allocation churn the
    struct-of-arrays rewrite exists to avoid.  Constructing the result
    object a ``return`` hands back (or an exception a ``raise`` throws on
    the failure path) is the function's contract and is exempt.
``RL007`` determinism in report/output paths
    Every report, digest and JSON artifact in this repo is contractually
    byte-identical across runs (the sweep cache, the CI artifact diffs,
    the explorer's canonical keys all depend on it).  Two AST patterns
    silently break that: ordering by object identity (``key=id`` —
    addresses vary run to run), flagged anywhere; and iterating an
    unordered ``set``/``frozenset`` expression directly (not wrapped in
    ``sorted``) inside a function whose name marks it as an output path
    (``to_json`` / ``render`` / ``format`` / ``report`` / ``digest`` /
    ``emit`` / ``encode`` / ``serial`` / ``artifact`` / ``key``).
``RL008`` no wall-clock reads in artifact-writing functions
    A function that writes a report artifact (``write_text``, a ``dump``
    call, or ``open(..., "w")``) must not also read wall-clock time —
    that is how a timestamp sneaks into an artifact and breaks the
    byte-identity contract (``obs diff`` on two identical runs must be
    exactly zero).  Timing that is only *printed* (never written) is the
    legitimate exception and carries a ``lint-ok`` marker saying so.
``RL009`` one state representation on the access paths
    The coherence stack keeps resident versions as slot columns and
    decides on integer state codes.  In ``coherence/hierarchy.py`` and
    ``coherence/directory.py`` (every line there is an access path or its
    bookkeeping) and in every ``# hot-path`` function under
    ``coherence/``, a ``State.<member>`` reference or a
    ``CacheLine``/``LineView`` construction means a second representation
    has crept back in; so does a ``_view(`` call outside the debug and
    introspection helpers (``check_*``, ``versions*``, ``all_lines``,
    ``lookup``, ``__repr__``).
``RL010`` one instrumentation mechanism
    The tap (``obs/tap.py``) owns all method wrapping.  Elsewhere, a
    ``functools.wraps`` use or a ``setattr`` whose value can be a function
    (anything but a literal or arithmetic) is a private patch-and-restore
    layer.
``RL011`` no hand-rolled spin loops
    Under ``runtime/`` and ``svc/``, a ``while`` loop whose body only
    yields a ``Work`` op (a ``Work(...)`` call or a named op), optionally
    bumping a counter, is a spin-wait the scheduler cannot see.  Spins
    yield ``SpinUntil`` (through ``runtime.paradigms.base.spin_until``) so
    the scheduler can park the thread and fast-forward its polls.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .findings import SEVERITY_ERROR, Finding, PassReport

#: rule id -> one-line description (the ``--lint`` catalog).
LINT_RULES: Dict[str, str] = {
    "RL001": "raise of a misspeculation error must pass cause=",
    "RL002": "protocol modules must not import container/runtime layers",
    "RL003": "__slots__ classes must not assign undeclared self attributes",
    "RL004": "RunRequest/cache-key code must not read wall-clock time",
    "RL005": "function-local imports require a lint-ok marker with a reason",
    "RL006": "# hot-path functions must not allocate per access",
    "RL007": "output/report paths must not order by id() or iterate "
             "unordered sets",
    "RL008": "artifact-writing functions must not read wall-clock time",
    "RL009": "coherence access paths must use slot columns and state "
             "codes, not State members or line objects",
    "RL010": "method wrapping goes through the instrumentation tap: no "
             "functools.wraps or function-valued setattr elsewhere",
    "RL011": "runtime/svc spin-waits yield SpinUntil, not a while loop "
             "of Work yields",
}

#: Exception classes whose raise sites must stamp ``cause=`` (RL001).
_CAUSE_STAMPED_ERRORS = {"MisspeculationError", "SpeculativeOverflowError"}

#: Module path suffixes that must stay pure (RL002) and the top-level
#: module segments they must not import.
_PURE_MODULES = ("coherence/protocol.py", "coherence/states.py",
                 "coherence/vid.py")
_IMPURE_SEGMENTS = {"cache", "hierarchy", "directory", "memory", "line",
                    "store", "core", "core_model", "cpu", "runtime",
                    "backends", "txctl", "experiments", "workloads"}

#: Scopes inside experiments/engine.py that must be wall-clock free
#: (RL004): the frozen request plus every digest/key helper.
_CACHE_KEY_FILE = "experiments/engine.py"
_CACHE_KEY_SCOPES = {"RunRequest", "config_digest"}
_WALLCLOCK_MODULES = {"time", "datetime", "date"}
_WALLCLOCK_CALLS = {"time", "time_ns", "monotonic", "monotonic_ns",
                    "perf_counter", "perf_counter_ns", "now", "utcnow",
                    "today", "localtime", "gmtime"}

_INLINE_MARKER = re.compile(
    r"#\s*lint-ok:\s*(?P<rule>RL\d{3})\s*\((?P<reason>[^)]+)\)")
_FILE_MARKER = re.compile(
    r"#\s*lint-file-ok:\s*(?P<rule>RL\d{3})\s*\((?P<reason>[^)]+)\)")


class _Suppressions:
    """Parsed ``lint-ok`` markers of one source file."""

    def __init__(self, source: str) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        self.file_wide: Set[str] = set()
        self.used = 0
        for lineno, text in enumerate(source.splitlines(), start=1):
            for match in _INLINE_MARKER.finditer(text):
                rule = match.group("rule")
                # A marker covers its own line and the one below, so it
                # can sit above a long statement.
                self.by_line.setdefault(lineno, set()).add(rule)
                self.by_line.setdefault(lineno + 1, set()).add(rule)
            for match in _FILE_MARKER.finditer(text):
                self.file_wide.add(match.group("rule"))

    def active(self, rule: str, lineno: int) -> bool:
        if rule in self.file_wide or rule in self.by_line.get(lineno, ()):
            self.used += 1
            return True
        return False


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _rl001_cause_stamping(tree: ast.AST, rel: str,
                          lines: Sequence[str]) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or \
                not isinstance(node.exc, ast.Call):
            continue
        name = _call_name(node.exc)
        if name not in _CAUSE_STAMPED_ERRORS:
            continue
        keywords = {kw.arg for kw in node.exc.keywords}
        if "cause" in keywords or None in keywords:  # None = **kwargs
            continue
        yield Finding(
            "RL001", SEVERITY_ERROR, f"{rel}:{node.lineno}",
            f"raise {name}(...) without cause=",
            "stamp an AbortCause so txctl contention managers classify "
            "the abort without exception-type guessing")


def _rl002_protocol_purity(tree: ast.AST, rel: str,
                           lines: Sequence[str]) -> Iterable[Finding]:
    if not rel.endswith(_PURE_MODULES):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            segments = set(module.split("."))
            dirty = segments & _IMPURE_SEGMENTS
            if dirty:
                yield Finding(
                    "RL002", SEVERITY_ERROR, f"{rel}:{node.lineno}",
                    f"pure protocol module imports {module!r}",
                    f"segment(s) {sorted(dirty)} belong to the stateful "
                    "container/runtime layers; protocol.py must stay "
                    "pure transition math (DESIGN.md section 2)")


def _rl003_slots_discipline(tree: ast.AST, rel: str,
                            lines: Sequence[str]) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        # Only enforceable when the MRO is fully visible: no bases (or
        # only ``object``) — a base class defined elsewhere could add
        # __dict__ back or declare more slots.
        if any(not (isinstance(b, ast.Name) and b.id == "object")
               for b in node.bases):
            continue
        slots = _declared_slots(node)
        if slots is None:
            continue
        class_level = {t.id for stmt in node.body
                       if isinstance(stmt, ast.Assign)
                       for t in stmt.targets if isinstance(t, ast.Name)}
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(method):
                target = _self_attr_target(sub)
                if target and target not in slots \
                        and target not in class_level:
                    yield Finding(
                        "RL003", SEVERITY_ERROR, f"{rel}:{sub.lineno}",
                        f"{node.name}.{method.name} assigns "
                        f"self.{target}, not in __slots__",
                        f"declared slots: {sorted(slots)}")


def _declared_slots(node: ast.ClassDef) -> Optional[Set[str]]:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets):
            if isinstance(stmt.value, (ast.Tuple, ast.List)):
                elements = stmt.value.elts
            else:
                return None  # dynamic __slots__: not statically checkable
            slots = set()
            for element in elements:
                if isinstance(element, ast.Constant) and \
                        isinstance(element.value, str):
                    slots.add(element.value)
                else:
                    return None
            return slots
    return None


def _self_attr_target(node: ast.AST) -> Optional[str]:
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                return target.attr
    return None


def _rl004_wallclock(tree: ast.AST, rel: str,
                     lines: Sequence[str]) -> Iterable[Finding]:
    if not rel.endswith(_CACHE_KEY_FILE):
        return
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and \
                node.name in _CACHE_KEY_SCOPES:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and \
                        isinstance(sub.func, ast.Attribute) and \
                        isinstance(sub.func.value, ast.Name) and \
                        sub.func.value.id in _WALLCLOCK_MODULES and \
                        sub.func.attr in _WALLCLOCK_CALLS:
                    yield Finding(
                        "RL004", SEVERITY_ERROR, f"{rel}:{sub.lineno}",
                        f"wall-clock call {sub.func.value.id}."
                        f"{sub.func.attr}() inside {node.name}",
                        "the sweep cache contract requires RunRequest.key "
                        "to be a pure function of the request "
                        "(DESIGN.md section 8)")


def _rl005_local_imports(tree: ast.AST, rel: str,
                         lines: Sequence[str]) -> Iterable[Finding]:
    def visit(node: ast.AST, in_function: bool) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) \
                    and in_function:
                names = ", ".join(alias.name for alias in child.names)
                yield Finding(
                    "RL005", SEVERITY_ERROR, f"{rel}:{child.lineno}",
                    f"function-local import of {names}",
                    "hoist to module level, or add "
                    "'# lint-ok: RL005 (reason)' naming the cycle or "
                    "heavy optional stack it breaks")
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, nested)

    yield from visit(tree, False)


#: The ``# hot-path`` marker naming functions RL006 polices.
_HOT_PATH_MARKER = re.compile(r"#\s*hot-path\b")

#: Lowercase builtins whose calls allocate a fresh container (RL006);
#: CamelCase names are treated as object construction by convention.
_ALLOCATING_BUILTINS = {"list", "dict", "set", "frozenset", "tuple",
                        "bytearray", "sorted"}

_CAMEL_CASE = re.compile(r"^[A-Z][A-Za-z0-9]*$")


def _is_hot_function(node: ast.AST, lines: Sequence[str]) -> bool:
    """True when the function's signature carries ``# hot-path``.

    The marker may sit on any signature line (``def`` through the line
    before the first body statement), so multi-line signatures can carry
    it at either end.
    """
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    end = node.body[0].lineno if node.body else node.lineno + 1
    for lineno in range(node.lineno, end + 1):
        if lineno - 1 < len(lines) and \
                _HOT_PATH_MARKER.search(lines[lineno - 1]):
            return True
    return False


def _rl006_hot_path_allocation(tree: ast.AST, rel: str,
                               lines: Sequence[str]) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not _is_hot_function(node, lines):
            continue
        yield from _scan_hot_body(node, rel)


def _scan_hot_body(func: ast.AST, rel: str) -> Iterable[Finding]:
    #: Allocation nodes whose *direct* use as a return value or a raised
    #: exception is the function's contract, not per-access churn.
    exempt: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and \
                isinstance(node.value, ast.Call):
            exempt.add(id(node.value))
        elif isinstance(node, ast.Raise) and \
                isinstance(node.exc, ast.Call):
            exempt.add(id(node.exc))
            # The exception message may be built in the raise arguments
            # (failure path: runs once, not per access).
            for sub in ast.walk(node.exc):
                exempt.add(id(sub))
    for node in ast.walk(func):
        if node is func or id(node) in exempt:
            continue
        kind = _allocation_kind(node)
        if kind is None:
            continue
        yield Finding(
            "RL006", SEVERITY_ERROR, f"{rel}:{node.lineno}",
            f"{kind} inside # hot-path function {func.name}",
            "this runs per simulated memory access; hoist the allocation "
            "out of the hot path, or add '# lint-ok: RL006 (reason)' "
            "explaining why it is not per-access (e.g. per-transaction, "
            "per-epoch fold, or eviction-only)")


def _allocation_kind(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.ListComp):
        return "list comprehension"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.DictComp):
        return "dict comprehension"
    if isinstance(node, ast.GeneratorExp):
        return "generator expression"
    if isinstance(node, ast.List):
        return "list literal"
    if isinstance(node, ast.Dict):
        return "dict literal"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.Lambda):
        return "lambda (closure creation)"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return "nested function (closure creation)"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        if name in _ALLOCATING_BUILTINS:
            return f"{name}() container construction"
        if _CAMEL_CASE.match(name):
            return f"object construction {name}(...)"
    return None


#: Function names that mark an output path (RL007): anything that
#: renders, serializes, digests or keys data for a report or artifact.
_OUTPUT_SCOPE = re.compile(
    r"to_json|render|format|report|digest|emit|encode|serial|artifact|key",
    re.IGNORECASE)

#: Builtins whose ``key=id`` ordering RL007 flags.
_ORDERING_CALLS = {"sorted", "min", "max", "sort"}


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically certain to evaluate to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _rl007_determinism(tree: ast.AST, rel: str,
                       lines: Sequence[str]) -> Iterable[Finding]:
    # id()-based ordering: nondeterministic across runs, anywhere.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in _ORDERING_CALLS:
            continue
        for kw in node.keywords:
            if kw.arg == "key" and isinstance(kw.value, ast.Name) \
                    and kw.value.id == "id":
                yield Finding(
                    "RL007", SEVERITY_ERROR, f"{rel}:{node.lineno}",
                    f"{name}(..., key=id) orders by object identity",
                    "id() values vary run to run; order by a stable "
                    "attribute instead")
    # Unordered-set iteration inside output-path functions.
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _OUTPUT_SCOPE.search(node.name):
            continue
        iters = []
        for sub in ast.walk(node):
            if isinstance(sub, (ast.For, ast.AsyncFor)):
                iters.append(sub.iter)
            elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                                  ast.GeneratorExp)):
                iters.extend(gen.iter for gen in sub.generators)
        for target in iters:
            if _is_set_expr(target):
                yield Finding(
                    "RL007", SEVERITY_ERROR, f"{rel}:{target.lineno}",
                    f"unordered set iterated in output path {node.name}",
                    "set iteration order is not stable across runs; wrap "
                    "in sorted(...) so the report stays byte-identical, "
                    "or add '# lint-ok: RL007 (reason)' if the order is "
                    "provably folded away")


#: Calls that mark a function as writing a report artifact (RL008).
_ARTIFACT_WRITE_CALLS = {"write_text", "dump"}


def _writes_artifact(func: ast.AST) -> bool:
    """True when the function body contains an artifact-write call."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in _ARTIFACT_WRITE_CALLS:
            return True
        # open(..., "w"/"wb"/...) — positional or keyword mode.
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = [a for a in node.args[1:2]]
            modes += [kw.value for kw in node.keywords
                      if kw.arg == "mode"]
            for mode in modes:
                if isinstance(mode, ast.Constant) and \
                        isinstance(mode.value, str) and "w" in mode.value:
                    return True
    return False


def _rl008_artifact_wallclock(tree: ast.AST, rel: str,
                              lines: Sequence[str]) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _writes_artifact(node):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Attribute) and \
                    isinstance(sub.func.value, ast.Name) and \
                    sub.func.value.id in _WALLCLOCK_MODULES and \
                    sub.func.attr in _WALLCLOCK_CALLS:
                yield Finding(
                    "RL008", SEVERITY_ERROR, f"{rel}:{sub.lineno}",
                    f"wall-clock call {sub.func.value.id}."
                    f"{sub.func.attr}() inside artifact-writing "
                    f"function {node.name}",
                    "report artifacts are contractually byte-identical "
                    "across runs (obs diff of two identical runs must be "
                    "zero); keep timing out of written payloads, or add "
                    "'# lint-ok: RL008 (reason)' stating the reading is "
                    "print-only")


#: Modules RL009 polices line by line (module path suffixes).
_ONE_REPRESENTATION_MODULES = ("coherence/hierarchy.py",
                               "coherence/directory.py")
#: Object facades that must not be constructed on an access path (RL009).
_LINE_OBJECTS = {"CacheLine", "LineView"}
#: Debug/introspection helpers allowed to build views with ``_view(``.
_INTROSPECTION_PREFIXES = ("check_", "versions", "all_lines", "lookup",
                           "__repr__")


def _rl009_one_representation(tree: ast.AST, rel: str,
                              lines: Sequence[str]) -> Iterable[Finding]:
    path = rel.replace("\\", "/")
    if path.endswith(_ONE_REPRESENTATION_MODULES):
        yield from _scan_representation(tree, rel, "")
    elif "coherence/" in path:
        for node in ast.walk(tree):
            if _is_hot_function(node, lines):
                yield from _scan_representation(node, rel, node.name)


def _scan_representation(node: ast.AST, rel: str,
                         func: str) -> Iterable[Finding]:
    for child in ast.iter_child_nodes(node):
        scope = (child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
        what = None
        if isinstance(child, ast.Attribute) \
                and isinstance(child.value, ast.Name) \
                and child.value.id == "State":
            what = f"State.{child.attr} reference"
        elif isinstance(child, ast.Call):
            name = _call_name(child)
            if name in _LINE_OBJECTS:
                what = f"{name} construction"
            elif name == "_view" \
                    and not scope.startswith(_INTROSPECTION_PREFIXES):
                what = "_view() call"
        if what is not None:
            yield Finding(
                "RL009", SEVERITY_ERROR, f"{rel}:{child.lineno}",
                f"{what} on a coherence access path"
                + (f" (in {scope})" if scope else ""),
                "access paths work on slot ints and the integer state "
                "codes of coherence/states.py (CODE_*); keep State members "
                "and line objects to tests and introspection helpers")
        yield from _scan_representation(child, rel, scope)


#: The modules allowed to wrap methods (RL010).
_WRAPPING_MODULES = ("obs/tap.py",)
#: setattr values that can never be a function (RL010).
_DATA_VALUES = (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Set,
                ast.Dict, ast.ListComp, ast.SetComp, ast.DictComp,
                ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare)


def _rl010_one_tap(tree: ast.AST, rel: str,
                   lines: Sequence[str]) -> Iterable[Finding]:
    if rel.replace("\\", "/").endswith(_WRAPPING_MODULES):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "wraps" \
                and getattr(node.value, "id", None) == "functools" \
                or isinstance(node, ast.ImportFrom) \
                and node.module == "functools" \
                and "wraps" in {alias.name for alias in node.names}:
            what = "functools.wraps"
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "setattr" \
                and len(node.args) == 3 \
                and not isinstance(node.args[2], _DATA_VALUES):
            what = "setattr with a function-capable value"
        else:
            continue
        yield Finding(
            "RL010", SEVERITY_ERROR, f"{rel}:{node.lineno}",
            f"{what} outside the instrumentation tap",
            "observe a method by subscribing to repro.obs.tap "
            "(before_/after_/failed_ callbacks) instead of patching it")


#: Packages whose spin-waits RL011 polices (path segments under repro/).
_SPIN_PACKAGES = ("runtime", "svc")


def _yields_work(stmt: ast.stmt) -> bool:
    """``yield Work(...)`` or ``yield <named op>`` as a statement."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value,
                                                        ast.Yield):
        return False
    value = stmt.value.value
    if isinstance(value, ast.Call):
        return _call_name(value) == "Work"
    return isinstance(value, (ast.Name, ast.Attribute))


def _rl011_spin_loops(tree: ast.AST, rel: str,
                      lines: Sequence[str]) -> Iterable[Finding]:
    path = "/" + rel.replace("\\", "/")
    if not any(f"/repro/{package}/" in path for package in _SPIN_PACKAGES):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.While) or node.orelse:
            continue
        yields = [stmt for stmt in node.body if _yields_work(stmt)]
        if yields and all(stmt in yields or isinstance(stmt, ast.AugAssign)
                          for stmt in node.body):
            yield Finding(
                "RL011", SEVERITY_ERROR, f"{rel}:{node.lineno}",
                "while loop that only yields Work ops: a spin-wait the "
                "scheduler cannot fast-forward",
                "yield from spin_until(<read-only predicate>) so the "
                "scheduler can park the thread")


_RULE_CHECKS = (
    _rl001_cause_stamping,
    _rl002_protocol_purity,
    _rl003_slots_discipline,
    _rl004_wallclock,
    _rl005_local_imports,
    _rl006_hot_path_allocation,
    _rl007_determinism,
    _rl008_artifact_wallclock,
    _rl009_one_representation,
    _rl010_one_tap,
    _rl011_spin_loops,
)


def lint_source(source: str, rel: str) -> Tuple[List[Finding], int]:
    """Lint one file's source; returns (findings, suppressions_used)."""
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as err:
        return [Finding("RL000", SEVERITY_ERROR, f"{rel}:{err.lineno}",
                        f"syntax error: {err.msg}")], 0
    suppressions = _Suppressions(source)
    lines = source.splitlines()
    findings = []
    for check in _RULE_CHECKS:
        for finding in check(tree, rel, lines):
            lineno = int(finding.where.rsplit(":", 1)[1])
            if not suppressions.active(finding.rule, lineno):
                findings.append(finding)
    return findings, suppressions.used


def default_lint_root() -> Path:
    """The package source tree this lint ships with (src/repro)."""
    return Path(__file__).resolve().parents[1]


def lint_paths(paths: Optional[Sequence[Path]] = None) -> PassReport:
    """Lint a set of files/directories (default: the repro package)."""
    roots = [Path(p) for p in paths] if paths else [default_lint_root()]
    files: List[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)
    report = PassReport(name="lint")
    suppressed = 0
    anchor = default_lint_root().parent
    for path in files:
        try:
            rel = str(path.resolve().relative_to(anchor))
        except ValueError:
            rel = str(path)
        findings, used = lint_source(path.read_text(encoding="utf-8"), rel)
        report.findings.extend(findings)
        suppressed += used
    report.coverage = {
        "files": len(files),
        "rules": len(LINT_RULES),
        "suppressions_used": suppressed,
        "violations": len(report.findings),
    }
    return report
