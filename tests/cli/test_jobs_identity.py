"""``--jobs`` never changes an artifact, and no change that keeps the
modelled behaviour changes one either.

``--jobs 1`` and ``--jobs 2`` write byte-identical files for the sweep
report, the svc tail-latency artifact, the topology scaling report and
the what-if report, and each file's SHA-256 equals the one pinned in
:data:`DIGESTS`.  None of them holds a wall time, a host path or a
``PYTHONHASHSEED``-dependent order: the pinned digests were the same
under two hash seeds and from two checkout directories.

Each command runs in a fresh interpreter from the repository root (the
survivor path is relative, so it reads the same everywhere), as a user
would run it, so no in-process state is shared between the two job
counts.  After an intended change in modelled behaviour, regenerate a
digest with the command it lists, run from the repository root::

    PYTHONPATH=src python -m repro <args> --jobs 1 --output out.json
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

#: SHA-256 of each command's artifact (see the module docstring).
DIGESTS = {
    "all": "5307755bae79e65f3dd93ef06918aee6286b74a493a371c6be4e6fd502c52f19",
    "svc": "519939fad4c13252f8d0e203e596ca9df7132e70f547088d3c0ef9fbba5d36ee",
    "scaling":
        "76be955ebd58b0c7736baad9dc25468552a49e5d3a94e10fa2766cf230a101c6",
    "whatif":
        "16fe6835fd2d60fc2674a7a36a1db61cca6d896669d5e4c17414afb1720d2647",
}


def artifact(tmp_path, args, jobs):
    output = tmp_path / f"jobs{jobs}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "repro", *args,
                    "--jobs", str(jobs), "--output", str(output)],
                   cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return output.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_jobs_do_not_change_the_artifact(tmp_path, name):
    serial = artifact(tmp_path, COMMANDS[name], 1)
    assert serial
    assert hashlib.sha256(serial).hexdigest() == DIGESTS[name], (
        f"{name} artifact changed; see the module docstring")
    assert artifact(tmp_path, COMMANDS[name], 2) == serial
