"""Serial fallback: guaranteed forward progress without speculation.

After repeated failed speculative attempts, the runtime re-executes the
remaining hot-loop iterations *non-speculatively* — the whole-body
``sequential_iteration`` fragments, VID 0, single thread — under a global
fallback lock.  This is the software fallback path every best-effort HTM
must provide: non-speculative execution has no conflict window (nothing
else runs) and no footprint limit (plain ``M`` lines write back to memory
freely), so it completes workloads that can *never* succeed speculatively,
such as a transaction whose write set exceeds the cache hierarchy
(section 5.4's deterministic overflow aborts).

MTX atomicity is preserved across the switch: the abort that triggered
the fallback already rolled every cache back to the last *committed*
state (section 4.4's all-or-nothing abort), the fallback resumes at
iteration ``stats.committed`` recomputing register state from committed
memory (``recover_carry``), and no speculative work runs concurrently —
the lock holder is the only live thread.  An iteration is therefore
either fully visible (committed speculatively, or completed by the
fallback's in-order non-speculative writes) or not at all.

The :class:`FallbackLock` is observable (``held``/``holder``) so the
:class:`~repro.txctl.policies.LemmingAvoidance` policy can delay
speculative retries while a fallback drains.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..cpu.isa import Op, Work

Program = Generator[Op, Any, None]


class FallbackLock:
    """The global serial-execution lock (observable test-and-set)."""

    def __init__(self) -> None:
        self.holder: Optional[int] = None
        self.acquisitions = 0

    @property
    def held(self) -> bool:
        return self.holder is not None

    def acquire(self, tid: int) -> None:
        if self.holder is not None:
            raise RuntimeError(
                f"fallback lock already held by thread {self.holder}")
        self.holder = tid
        self.acquisitions += 1

    def release(self, tid: int) -> None:
        if self.holder != tid:
            raise RuntimeError(
                f"thread {tid} releasing fallback lock held by {self.holder}")
        self.holder = None


class SerialFallback:
    """Builds and accounts for non-speculative serial re-execution."""

    #: Cost of the global lock handshake (an uncontended atomic RMW plus
    #: fence on acquire; a store-release on release).
    lock_acquire_cycles = 40
    lock_release_cycles = 10

    def __init__(self) -> None:
        self.lock = FallbackLock()

    # ------------------------------------------------------------------

    def program(self, system, workload, tid: int = 0,
                stats=None) -> Program:
        """One-thread program running iterations ``committed..n`` at VID 0.

        ``system`` duck-types :class:`~repro.core.system.HMTXSystem`;
        ``workload`` is any :class:`~repro.workloads.base.Workload`.
        ``stats`` (a :class:`~repro.txctl.stats.ContentionStats`) receives
        per-iteration accounting when provided.
        """
        def body() -> Program:
            self.lock.acquire(tid)
            try:
                yield Work(self.lock_acquire_cycles)
                start = system.stats.committed
                carry = (workload.recover_carry(system, start) if start
                         else workload.initial_carry(system))
                for i in range(start, workload.iterations):
                    carry = yield from workload.sequential_iteration(i, carry)
                    if stats is not None:
                        stats.fallback_iterations += 1
                yield Work(self.lock_release_cycles)
            finally:
                self.lock.release(tid)
        return body()

    @staticmethod
    def idle_program() -> Program:
        """A program for the non-lock-holding threads: park immediately."""
        return
        yield  # pragma: no cover - makes this function a generator
