"""``repro.analysis`` — correctness tooling over the protocol and traces.

Three coordinated static/dynamic analysis passes, all reachable through
``python -m repro analyze`` and the CI ``analysis`` job:

``modelcheck``
    Exhaustively enumerates the protocol's ``(state, modVID, highVID,
    requestVID)`` decision space over the full m-bit VID namespace and
    asserts the paper's section 4.3 invariants (window soundness, version
    partitioning, superseded immutability, dependence-exact write aborts,
    lazy commit/abort fold convergence, VID-reset scrubbing).  Failures
    come back as exact tuple counterexamples.
``racecheck``
    An offline detector over recorded trace event streams: rebuilds the
    VID happens-before order, replays MTX value forwarding, and flags lost
    forwarded values, group-commit atomicity violations, aborts attributed
    to committed VIDs, and VID-recycling hazards.
``lint``
    AST-based repo-specific rules (RL001..RL007): abort-cause stamping,
    protocol purity, ``__slots__`` discipline, wall-clock-free cache keys,
    no undocumented function-local imports, and report-path determinism
    (no unordered-set iteration or ``id()`` ordering feeding output).
``explore`` (opt-in: ``analyze --explore``)
    The interleaving-level stateful model checker: drives the real
    ``MemoryHierarchy`` / ``DirectoryHierarchy`` through every schedule
    of a bounded scenario, quotienting by VID-rank renaming and the
    2-socket mirror symmetry, and checks the global rules EX001
    (serializability), EX002 (no lost updates), EX003 (directory-cache
    agreement on every reachable state), EX004 (liveness).  Violations
    are delta-debugged into replayable counterexample artifacts.  It
    pulls in the full coherence stack, so this package does not import
    it: use :mod:`repro.analysis.explore` directly.

See DESIGN.md sections 10 and 15 for the rule catalogs and
counterexample formats.
"""

from .findings import AnalysisReport, Finding, PassReport
from .lint import LINT_RULES, lint_paths, lint_source
from .modelcheck import check_protocol
from .racecheck import check_trace

__all__ = [
    "AnalysisReport",
    "Finding",
    "LINT_RULES",
    "PassReport",
    "check_protocol",
    "check_trace",
    "lint_paths",
    "lint_source",
]

