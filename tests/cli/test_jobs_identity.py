"""``--jobs`` never changes an artifact: ``--jobs 1`` and ``--jobs 2``
write byte-identical files for the sweep report, the svc tail-latency
artifact, the topology scaling report and the what-if report.

Each command runs in a fresh interpreter, as a user would run it, so no
in-process state is shared between the two job counts.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
SURVIVOR = (pathlib.Path(__file__).resolve().parents[1] / "svc"
            / "survivors" / "svc-adv-s42-01.json")

COMMANDS = {
    "all": ["all", "--quick"],
    "svc": ["svc", "--scale", "0.25", "--seed", "42", "--format", "json"],
    "scaling": ["scaling", "--quick", "--survivor", str(SURVIVOR)],
    "whatif": ["obs", "whatif", "--quick"],
}


def artifact(tmp_path, args, jobs):
    output = tmp_path / f"jobs{jobs}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "repro", *args,
                    "--jobs", str(jobs), "--output", str(output)],
                   cwd=tmp_path, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return output.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_jobs_do_not_change_the_artifact(tmp_path, name):
    serial = artifact(tmp_path, COMMANDS[name], 1)
    assert serial
    assert artifact(tmp_path, COMMANDS[name], 2) == serial
