"""``--jobs`` never changes an artifact, and no change that keeps the
modelled behaviour changes one either.

``--jobs 1`` and ``--jobs 2`` write byte-identical files for the sweep
report, the svc tail-latency artifact, the topology scaling report and
the what-if report, and each file's SHA-256 equals the one pinned in
:data:`DIGESTS`, as does the interleaving explorer's JSON report.  None
of them holds a wall time, a host path or a ``PYTHONHASHSEED``-dependent
order: the pinned digests were the same under two hash seeds and from
two checkout directories, and the scaling report labels its survivor
replay by the survivor's name, so an absolute survivor path gives the
same bytes as a relative one.

Each command runs in a fresh interpreter, as a user would run it, so no
in-process state is shared between the two job counts.  After an
intended change in modelled behaviour, regenerate a digest with the
command it lists (from the repository root, where the relative survivor
path in :data:`COMMANDS` resolves)::

    PYTHONPATH=src python -m repro <args> --jobs 1 --output out.json
    PYTHONPATH=src python -m repro analyze --explore --preset small \\
        --format json --output out.json
    sha256sum out.json

and say in CHANGES.md why the artifact changed.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
ROOT = pathlib.Path(__file__).resolve().parents[2]
SURVIVOR = "tests/svc/survivors/svc-adv-s42-01.json"

COMMANDS = {
    "all": ["all", "--quick"],
    "svc": ["svc", "--scale", "0.25", "--seed", "42", "--format", "json"],
    "scaling": ["scaling", "--quick", "--survivor", SURVIVOR],
    "whatif": ["obs", "whatif", "--quick"],
}
EXPLORE = ["analyze", "--explore", "--preset", "small", "--format", "json"]

#: SHA-256 of each command's artifact (see the module docstring).
DIGESTS = {
    "all": "5307755bae79e65f3dd93ef06918aee6286b74a493a371c6be4e6fd502c52f19",
    "svc": "519939fad4c13252f8d0e203e596ca9df7132e70f547088d3c0ef9fbba5d36ee",
    "scaling":
        "98cd8807c502674a5469538bd5b79c2dd198a0ad5d5a54049d776193eae85b70",
    "whatif":
        "16fe6835fd2d60fc2674a7a36a1db61cca6d896669d5e4c17414afb1720d2647",
    "explore":
        "1a90a644a2109742fb86569355af7df5c0a17060268bf6d4edc955c9d04dc5c3",
}


def run_repro(args, output, cwd=ROOT):
    """Run ``python -m repro <args> --output <output>`` in a fresh
    interpreter from ``cwd``; returns the file's bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "repro", *args,
                    "--output", str(output)],
                   cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL)
    return output.read_bytes()


def artifact(tmp_path, args, jobs):
    return run_repro([*args, "--jobs", str(jobs)],
                     tmp_path / f"jobs{jobs}.json")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_jobs_do_not_change_the_artifact(tmp_path, name):
    serial = artifact(tmp_path, COMMANDS[name], 1)
    assert serial
    assert hashlib.sha256(serial).hexdigest() == DIGESTS[name], (
        f"{name} artifact changed; see the module docstring")
    assert artifact(tmp_path, COMMANDS[name], 2) == serial


def test_explore_report_is_pinned(tmp_path):
    report = run_repro(EXPLORE, tmp_path / "explore.json")
    assert hashlib.sha256(report).hexdigest() == DIGESTS["explore"], (
        "explore report changed; see the module docstring")


def test_survivor_path_spelling_does_not_change_the_report(tmp_path):
    """An absolute survivor path, from outside the repository, writes
    the bytes the pinned relative-path command writes."""
    absolute = ["scaling", "--quick", "--survivor", str(ROOT / SURVIVOR)]
    report = run_repro(absolute, tmp_path / "scaling.json", cwd=tmp_path)
    assert hashlib.sha256(report).hexdigest() == DIGESTS["scaling"]
