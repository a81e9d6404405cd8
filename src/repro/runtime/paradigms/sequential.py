"""Sequential — one thread, no speculation (the baseline)."""

from __future__ import annotations

from typing import Tuple

from ...backends import TMBackend
from ...workloads.base import Workload
from .base import Build, Program


def sequential(workload: Workload, system: TMBackend) -> Tuple[str, Build]:
    """Run the hot loop on one core without speculation (the baseline).

    No transaction ever opens, so no abort ever asks for a rebuild.
    """

    def program() -> Program:
        carry = workload.initial_carry(system)
        for i in range(workload.iterations):
            carry = yield from workload.sequential_iteration(i, carry)

    return "Sequential", lambda start, serial: {0: program()}
