"""Shared result model for the analysis passes.

Every pass — model checker, race detector, lint — reports through the same
:class:`Finding` shape so the CLI, the CI job, and downstream consumers
(the sweep engine, bots) read one schema: a stable rule id, a severity, a
location (``file:line`` for lint, an event sequence number for racecheck,
an exact state tuple for the model checker), and a human-readable message.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

#: Findings at this severity fail the analysis run (exit code 1).
SEVERITY_ERROR = "error"
#: Advisory findings; reported but never gate.
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One analysis result: a rule violation with its exact location."""

    #: Stable rule id (``MC0xx`` modelcheck, ``RC0xx`` racecheck,
    #: ``RL0xx`` lint).
    rule: str
    severity: str
    #: Where: ``path:line`` (lint), ``seq N`` (racecheck), or the exact
    #: ``(state, modVID, highVID, requestVID)`` tuple (modelcheck).
    where: str
    message: str
    #: Counterexample / context: the transition taken, expected vs got.
    detail: str = ""
    #: Structured, machine-readable counterexample: the exact inputs that
    #: reproduce the violation (modelcheck state tuples, explore schedules).
    #: ``None`` when a pass has no structured form; omitted from JSON then,
    #: so reports without counterexamples are byte-identical to before.
    counterexample: Optional[Dict[str, Any]] = None

    def render(self) -> str:
        text = f"{self.rule} [{self.severity}] {self.where}: {self.message}"
        if self.detail:
            text += f"\n    {self.detail}"
        return text

    def to_json(self) -> Dict[str, Any]:
        data = asdict(self)
        if data["counterexample"] is None:
            del data["counterexample"]
        return data


@dataclass
class PassReport:
    """Outcome of one analysis pass."""

    name: str
    findings: List[Finding] = field(default_factory=list)
    #: Pass-specific coverage counters (tuples enumerated, files linted,
    #: traces replayed, ...) — the "we really looked" evidence.
    coverage: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(f.severity == SEVERITY_ERROR for f in self.findings)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "coverage": dict(sorted(self.coverage.items())),
            "findings": [f.to_json() for f in self.findings],
        }


@dataclass
class AnalysisReport:
    """The merged result of every pass one ``analyze`` invocation ran."""

    passes: List[PassReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.passes)

    @property
    def findings(self) -> List[Finding]:
        return [f for p in self.passes for f in p.findings]

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": "hmtx-analysis-report/1",
            "ok": self.ok,
            "passes": [p.to_json() for p in self.passes],
        }

    def format_text(self) -> str:
        lines: List[str] = []
        for p in self.passes:
            status = "ok" if p.ok else f"{len(p.findings)} finding(s)"
            cov = ", ".join(f"{k}={v}" for k, v in sorted(p.coverage.items()))
            lines.append(f"[{p.name}] {status}" + (f"  ({cov})" if cov else ""))
            lines.extend("  " + f.render().replace("\n", "\n  ")
                         for f in p.findings)
        lines.append("analysis: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)
