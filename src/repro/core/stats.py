"""Transaction-level statistics: read/write sets, SLA counts, aborts.

These counters back Table 1 (speculative accesses per transaction, SLAs as a
fraction of speculative loads, aborts avoided via SLA) and Figure 9 (average
read/write-set sizes per transaction in kilobytes).

Read and write sets are tracked at cache-line granularity, matching the
hardware's conflict-detection granularity (section 7.1: HMTX deliberately
uses line-level rather than byte-level granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..txctl.causes import AbortCause
from ..txctl.stats import ContentionStats


@dataclass
class OpenTransaction:
    """Accounting for one in-flight (uncommitted) transaction."""

    vid: int
    read_lines: Set[int] = field(default_factory=set)
    write_lines: Set[int] = field(default_factory=set)
    spec_loads: int = 0
    spec_stores: int = 0
    slas_sent: int = 0


@dataclass
class CommittedTransaction:
    """Immutable record of a committed transaction (one Figure 9 sample)."""

    vid: int
    read_set_bytes: int
    write_set_bytes: int
    combined_set_bytes: int
    spec_accesses: int
    slas_sent: int


@dataclass
class SystemStats:
    """Aggregate statistics of one :class:`~repro.core.system.HMTXSystem` run."""

    line_size: int = 64
    committed: int = 0
    aborted: int = 0
    explicit_aborts: int = 0
    spec_loads: int = 0
    spec_stores: int = 0
    slas_sent: int = 0
    wrong_path_loads: int = 0
    false_aborts_avoided: int = 0
    false_aborts_triggered: int = 0
    vid_resets: int = 0
    transactions: List[CommittedTransaction] = field(default_factory=list)
    #: Abort-cause taxonomy and recovery-decision counters (repro.txctl).
    contention: ContentionStats = field(default_factory=ContentionStats)
    _open: Dict[int, OpenTransaction] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_commit(self, vid: int) -> Optional[CommittedTransaction]:
        tx = self._open.pop(vid, None)
        self.committed += 1
        if tx is None:
            return None
        record = CommittedTransaction(
            vid=vid,
            read_set_bytes=len(tx.read_lines) * self.line_size,
            write_set_bytes=len(tx.write_lines) * self.line_size,
            combined_set_bytes=len(tx.read_lines | tx.write_lines) * self.line_size,
            spec_accesses=tx.spec_loads + tx.spec_stores,
            slas_sent=tx.slas_sent,
        )
        self.transactions.append(record)
        return record

    def record_abort(self, explicit: bool = False,
                     cause: Optional[AbortCause] = None,
                     vid: int = 0) -> None:
        self.aborted += 1
        if explicit:
            self.explicit_aborts += 1
        if cause is not None:
            self.contention.record_abort(vid, cause)
        self._open.clear()

    # ------------------------------------------------------------------
    # Derived metrics (Table 1 / Figure 9)
    # ------------------------------------------------------------------

    @property
    def avg_spec_accesses_per_tx(self) -> float:
        if not self.transactions:
            return 0.0
        return sum(t.spec_accesses for t in self.transactions) / len(self.transactions)

    @property
    def avg_read_set_kb(self) -> float:
        return self._avg_kb("read_set_bytes")

    @property
    def avg_write_set_kb(self) -> float:
        return self._avg_kb("write_set_bytes")

    @property
    def avg_combined_set_kb(self) -> float:
        return self._avg_kb("combined_set_bytes")

    def _avg_kb(self, attr: str) -> float:
        if not self.transactions:
            return 0.0
        total = sum(getattr(t, attr) for t in self.transactions)
        return total / len(self.transactions) / 1024.0

    @property
    def sla_fraction_of_spec_loads(self) -> float:
        """"% of Spec Loads Needing SLA" column of Table 1."""
        if self.spec_loads == 0:
            return 0.0
        return self.slas_sent / self.spec_loads

    @property
    def avoided_aborts_per_tx(self) -> float:
        """"Number of TX Aborts Avoided via SLA Per TX" column of Table 1."""
        if self.committed == 0:
            return 0.0
        return self.false_aborts_avoided / self.committed
