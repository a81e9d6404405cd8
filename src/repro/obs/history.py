"""Cross-run obs-digest history: a content-addressed JSONL store.

Every artifact the repo emits is a *snapshot* — ``BENCH_hotpath.json``
and ``REPORT_scaling.json`` are overwritten in place, and the obs digest
riding in a :class:`~repro.experiments.engine.RunRecord` dies with the
process.  This module gives digests a durable timeline so
``python -m repro obs diff`` can explain *why* a number moved between
two runs, two commits, or two machine shapes.

Layout (``.obs-history/`` by default, git-ignored)::

    digests.jsonl   one line per *unique* digest payload, keyed by the
                    sha1 of its canonical JSON — content-addressed, so a
                    bench rerun that reproduces bit-identical digests
                    appends nothing here;
    runs.jsonl      one line per observed run (schema
                    ``hmtx-obs-history/1``): the run's identity
                    (workload/system/scale/paradigm/policy/options +
                    machine digest), the git-describe label of the
                    working tree, the makespan, and the ``digest_id``
                    pointing into ``digests.jsonl``.

Runs are grouped into **generations**: one append call (one CLI
invocation) is one generation, so history refs work like git —
``HEAD`` is the latest generation, ``HEAD~1`` the one before,
``gen:7`` an absolute index, ``git:<label>`` the newest generation
recorded under that git-describe label.

Writers: ``python -m repro bench --history``, ``python -m repro
scaling --history``, ``python -m repro obs <workload> --history`` and
anything that runs requests with ``observe=True`` through a
:class:`~repro.experiments.engine.SweepEngine` (the engine collects
executed observed ``(request, record)`` pairs in ``observed_pairs`` for
exactly this hand-off).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import subprocess
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..workloads.suite import workload_label

HISTORY_SCHEMA = "hmtx-obs-history/1"
BUNDLE_SCHEMA = "hmtx-obs-digests/1"
DEFAULT_ROOT = ".obs-history"

_REF = re.compile(r"^(?:HEAD(?:~(?P<back>\d+))?|gen:(?P<gen>\d+)"
                  r"|git:(?P<git>.+))$")


def canonical_json(data: Any) -> str:
    """The one serialization content addresses are computed over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest_id(digest: Dict[str, Any]) -> str:
    """Content address of one obs digest (sha1 of canonical JSON)."""
    return hashlib.sha1(canonical_json(digest).encode()).hexdigest()


def git_describe(cwd: Optional[str] = None) -> str:
    """``git describe --always --dirty`` of the working tree.

    A label, not an input to any simulation: history records carry it so
    ``obs diff git:A git:B`` can compare commits, but every digest is a
    pure function of (workload, machine, code).  Outside a git checkout
    (or without git) the label degrades to ``"unknown"``.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    label = out.stdout.strip()
    return label if out.returncode == 0 and label else "unknown"


def run_entry(request, record, generation: int, seq: int,
              source: str, git: str) -> Dict[str, Any]:
    """One ``runs.jsonl`` line for an observed (request, record) pair."""
    from ..experiments.engine import config_digest  # lint-ok: RL005 (engine imports obs lazily for observed runs; importing it back at module load would cycle)
    return {
        "schema": HISTORY_SCHEMA,
        "generation": generation,
        "seq": seq,
        "source": source,
        "git": git,
        "workload": workload_label(request.workload),
        "system": request.system,
        "scale": request.scale,
        "paradigm": request.paradigm,
        "policy": request.policy,
        "options": [list(pair) for pair in request.options],
        "machine": config_digest(request.machine),
        "cycles": record.cycles,
        "makespan": record.obs_digest["makespan"],
        "digest_id": digest_id(record.obs_digest),
    }


class HistoryStore:
    """Append-only digest history rooted at one directory."""

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = pathlib.Path(root)
        self.runs_path = self.root / "runs.jsonl"
        self.digests_path = self.root / "digests.jsonl"

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _read_jsonl(self, path: pathlib.Path) -> List[Dict[str, Any]]:
        if not path.exists():
            return []
        entries = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                entries.append(json.loads(line))
        return entries

    def runs(self) -> List[Dict[str, Any]]:
        return self._read_jsonl(self.runs_path)

    def digests(self) -> Dict[str, Dict[str, Any]]:
        """``digest_id -> digest`` for every stored payload."""
        return {entry["id"]: entry["digest"]
                for entry in self._read_jsonl(self.digests_path)}

    def generations(self) -> List[Dict[str, Any]]:
        """Generation summaries, oldest first."""
        by_gen: Dict[int, Dict[str, Any]] = {}
        for run in self.runs():
            summary = by_gen.setdefault(run["generation"], {
                "generation": run["generation"],
                "source": run["source"],
                "git": run["git"],
                "runs": 0,
            })
            summary["runs"] += 1
        return [by_gen[gen] for gen in sorted(by_gen)]

    def resolve(self, ref: str) -> List[Dict[str, Any]]:
        """Runs of the generation named by ``ref`` (with digests inline).

        Refs: ``HEAD``, ``HEAD~N``, ``gen:N``, ``git:<label>``.  Raises
        ``KeyError`` when the ref does not name a stored generation.
        """
        match = _REF.match(ref)
        if match is None:
            raise KeyError(f"unrecognized history ref {ref!r} (expected "
                           f"HEAD, HEAD~N, gen:N or git:LABEL)")
        runs = self.runs()
        gens = sorted({run["generation"] for run in runs})
        if not gens:
            raise KeyError(f"history at {self.root} is empty; run e.g. "
                           f"'python -m repro bench --quick --history'")
        if match.group("gen") is not None:
            generation = int(match.group("gen"))
            if generation not in gens:
                raise KeyError(f"no generation {generation} in {self.root} "
                               f"(have {gens[0]}..{gens[-1]})")
        elif match.group("git") is not None:
            label = match.group("git")
            matching = [run["generation"] for run in runs
                        if run["git"] == label]
            if not matching:
                raise KeyError(f"no generation recorded under git label "
                               f"{label!r} in {self.root}")
            generation = max(matching)
        else:
            back = int(match.group("back") or 0)
            if back >= len(gens):
                raise KeyError(f"HEAD~{back} is older than history "
                               f"({len(gens)} generation(s) stored)")
            generation = gens[-1 - back]
        payloads = self.digests()
        selected = [dict(run, digest=payloads[run["digest_id"]])
                    for run in runs if run["generation"] == generation]
        selected.sort(key=lambda run: run["seq"])
        return selected

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append_runs(self, pairs: Sequence[Tuple[Any, Any]],
                    source: str, git: Optional[str] = None) -> Dict[str, Any]:
        """Record one generation of observed ``(request, record)`` pairs.

        Pairs without an obs digest are skipped; digest payloads are
        stored content-addressed (an identical rerun adds run lines but
        zero new payload bytes).  Returns a summary dict; appends
        nothing (and allocates no generation) when no pair is observed.
        """
        observed = [(request, record) for request, record in pairs
                    if record.obs_digest is not None]
        if not observed:
            return {"generation": None, "runs": 0, "new_digests": 0}
        self.root.mkdir(parents=True, exist_ok=True)
        known = set(self.digests())
        generation = max((run["generation"] for run in self.runs()),
                         default=0) + 1
        git = git if git is not None else git_describe()
        new_payloads: List[str] = []
        run_lines: List[str] = []
        for seq, (request, record) in enumerate(observed):
            entry = run_entry(request, record, generation, seq, source, git)
            if entry["digest_id"] not in known:
                known.add(entry["digest_id"])
                new_payloads.append(canonical_json(
                    {"id": entry["digest_id"],
                     "digest": record.obs_digest}))
            run_lines.append(canonical_json(entry))
        if new_payloads:
            with self.digests_path.open("a", encoding="utf-8") as fh:
                fh.write("\n".join(new_payloads) + "\n")
        with self.runs_path.open("a", encoding="utf-8") as fh:
            fh.write("\n".join(run_lines) + "\n")
        return {"generation": generation, "runs": len(run_lines),
                "new_digests": len(new_payloads)}

    # ------------------------------------------------------------------
    # Export (digest bundles — the committed-baseline interchange format)
    # ------------------------------------------------------------------

    def export_bundle(self, ref: str = "HEAD") -> Dict[str, Any]:
        """A self-contained ``hmtx-obs-digests/1`` bundle of one ref."""
        return bundle([(run, run["digest"]) for run in self.resolve(ref)])


def bundle(runs_with_digests: Iterable[Tuple[Dict[str, Any],
                                             Dict[str, Any]]]) -> Dict[str, Any]:
    """Build a digest bundle from ``(run-entry, digest)`` pairs."""
    entries = []
    for run, payload in runs_with_digests:
        entries.append({
            "workload": run["workload"],
            "system": run["system"],
            "scale": run["scale"],
            "machine": run.get("machine", "default"),
            "git": run.get("git", "unknown"),
            "cycles": run.get("cycles"),
            "digest": payload,
        })
    return {"schema": BUNDLE_SCHEMA, "entries": entries}


def format_history(store: HistoryStore, limit: int = 10) -> str:
    """Terminal listing: newest generations first."""
    gens = store.generations()
    if not gens:
        return (f"history at {store.root}: empty "
                f"(append with --history on bench/scaling/obs runs)")
    lines = [f"history at {store.root}: {len(gens)} generation(s)"]
    head = gens[-1]["generation"]
    for summary in reversed(gens[-limit:]):
        back = head - summary["generation"]
        ref = "HEAD" if back == 0 else f"HEAD~{back}"
        lines.append(f"  {ref:<8} gen:{summary['generation']:<4} "
                     f"{summary['source']:<8} {summary['git']:<24} "
                     f"{summary['runs']} run(s)")
    return "\n".join(lines)
