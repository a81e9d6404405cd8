"""Timestamped inter-thread queues for pipeline parallelism.

DSWP threads communicate through produce/consume queues (Figure 3's
``produceVID``/``consumeVID``).  Each entry carries the simulated time at
which it becomes visible to consumers — the producer's clock plus the
one-way inter-core latency — which is how the timing model captures the key
performance property of section 2.1: pipeline paradigms pay inter-core
latency only at pipeline fill, while DOACROSS pays it on every iteration's
critical path.

Queues are **bounded** (default 16 entries), like real DSWP software
queues.  Back-pressure matters to HMTX beyond realism: it caps how far the
pipeline's first stage can run ahead, and therefore how many live versions
of a hot forwarded line (Figure 3's ``producedNode``) coexist in one cache
set.  An unbounded run-ahead of ~2^m transactions would overflow the set
and force spurious aborts (section 5.4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Tuple

DEFAULT_QUEUE_CAPACITY = 16


@dataclass
class QueueEntry:
    value: Any
    ready_time: int


@dataclass
class TimedQueue:
    """A bounded FIFO whose entries appear ``latency`` cycles after produce."""

    name: str
    latency: int = 40
    capacity: Optional[int] = DEFAULT_QUEUE_CAPACITY
    _entries: Deque[QueueEntry] = field(default_factory=deque, init=False)
    #: Consumer clock at the most recent pop (used to time unblocked
    #: producers that were waiting for space).
    last_pop_time: int = field(default=0, init=False)

    def full(self) -> bool:
        return self.capacity is not None and len(self._entries) >= self.capacity

    def produce(self, value: Any, now: int) -> None:
        """Append an entry (caller must have checked :meth:`full`)."""
        self._entries.append(QueueEntry(value, now + self.latency))

    def try_consume(self, now: int) -> Optional[Tuple[Any, int]]:
        """Pop the head entry if one exists.

        Returns ``(value, time_of_availability)``; the consumer's clock
        advances to ``max(now, time_of_availability)``.  Returns ``None``
        when the queue is empty (the consumer blocks).
        """
        if not self._entries:
            return None
        entry = self._entries.popleft()
        self.last_pop_time = max(self.last_pop_time, now, entry.ready_time)
        return entry.value, entry.ready_time

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all in-flight entries (abort recovery)."""
        self._entries.clear()


class QueueSet:
    """Named queues shared by the threads of one parallel run."""

    def __init__(self, latency: int,
                 capacity: Optional[int] = DEFAULT_QUEUE_CAPACITY) -> None:
        self.latency = latency
        self.capacity = capacity
        self._queues: Dict[str, TimedQueue] = {}

    def get(self, name: str) -> TimedQueue:
        if name not in self._queues:
            self._queues[name] = TimedQueue(name, latency=self.latency,
                                            capacity=self.capacity)
        return self._queues[name]

    def clear_all(self) -> None:
        for queue in self._queues.values():
            queue.clear()
