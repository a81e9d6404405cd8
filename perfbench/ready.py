"""Set-up probe for ``setup_s``: run in a fresh interpreter by run.py.

    python3 perfbench/ready.py WORKLOAD SEED

Imports the workload's lazily loaded stacks, builds its request batch and
prints the wall-clock time (``time.time()``) at which the first request
could be issued; run.py subtracts the time it spawned the process.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (needs the source path above)

workloads.prepare(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.time())
