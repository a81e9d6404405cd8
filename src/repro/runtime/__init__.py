"""Parallel runtime: discrete-event scheduler, queues, execution paradigms.

Every paradigm runs through one driver, :func:`run_workload`, which
builds the machine, places the paradigm's threads, drives abort recovery
and returns a :class:`ParadigmResult`.
"""

from .paradigms import ParadigmResult, run_workload
from .queues import QueueSet, TimedQueue
from .scheduler import DeadlockError, RunResult, Scheduler, ThreadHandle

__all__ = [
    "DeadlockError",
    "ParadigmResult",
    "QueueSet",
    "RunResult",
    "Scheduler",
    "ThreadHandle",
    "TimedQueue",
    "run_workload",
]
