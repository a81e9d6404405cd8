"""Versioned software memory for the SMTX baseline.

Models what the real SMTX runtime achieves with forked processes and
copy-on-write pages: each transaction sees committed state overlaid with the
write buffers of all logically-earlier uncommitted transactions (uncommitted
value forwarding) plus its own writes.

Commits apply a transaction's buffer to committed state *in VID order*,
mirroring the sequential commit process.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..coherence.memory import MainMemory


@dataclass
class SmtxMemory:
    """Committed words plus per-VID speculative write buffers."""

    backing: MainMemory = field(default_factory=MainMemory)
    _buffers: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: The writer index: word -> the VIDs whose buffer holds it, in
    #: ascending order, so a read looks only at its own word's writers.
    _writers: Dict[int, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def read(self, vid: int, addr: int) -> int:
        """Read as transaction ``vid`` (0 = committed state only)."""
        return self.read_with_source(vid, addr)[0]

    def read_with_source(self, vid: int, addr: int
                         ) -> Tuple[int, int]:  # hot-path
        """Read as ``vid``; returns ``(value, the VID whose buffer supplied
        it)``, 0 for committed state.

        The newest write buffer of a VID ``<= vid`` that holds the word
        supplies it — exactly the version a correctly-ordered MTX must
        observe.
        """
        word = addr - (addr % self.backing.word_size)
        if vid > 0:
            writers = self._writers.get(word)
            if writers:
                index = bisect_right(writers, vid)
                if index:
                    writer = writers[index - 1]
                    return self._buffers[writer][word], writer
        return self.backing.read_word(word), 0

    def write(self, vid: int, addr: int, value: int) -> None:
        """Write as transaction ``vid`` (0 writes committed state)."""
        word = addr - (addr % self.backing.word_size)
        if vid == 0:
            self.backing.write_word(word, value)
            return
        buffer = self._buffers.get(vid)
        if buffer is None:
            buffer = self._buffers[vid] = {}
        if word not in buffer:
            insort(self._writers.setdefault(word, []), vid)
        buffer[word] = value

    # ------------------------------------------------------------------

    def commit(self, vid: int) -> int:
        """Apply ``vid``'s buffer to committed state; returns words applied."""
        buffer = self._buffers.pop(vid, None)
        if buffer is None:
            return 0
        index = self._writers
        for word, value in buffer.items():
            writers = index[word]
            writers.remove(vid)
            if not writers:
                del index[word]
            self.backing.write_word(word, value)
        return len(buffer)

    def abort_all(self) -> int:
        """Drop every uncommitted buffer; returns buffers discarded."""
        count = len(self._buffers)
        self._buffers.clear()
        self._writers.clear()
        return count


@dataclass
class ReadLogEntry:
    """A validated read shipped to the commit process."""

    vid: int
    addr: int
    value_seen: int


class ValidationLog:
    """Per-transaction validation sets (the commit process's work queue)."""

    def __init__(self) -> None:
        self._reads: Dict[int, List[ReadLogEntry]] = {}
        self._writes: Dict[int, List[Tuple[int, int]]] = {}

    def log_read(self, vid: int, addr: int, value: int) -> None:
        self._reads.setdefault(vid, []).append(ReadLogEntry(vid, addr, value))

    def log_write(self, vid: int, addr: int, value: int) -> None:
        self._writes.setdefault(vid, []).append((addr, value))

    def entries(self, vid: int) -> int:
        return len(self._reads.get(vid, ())) + len(self._writes.get(vid, ()))

    def validate(self, vid: int, memory: SmtxMemory) -> Optional[ReadLogEntry]:
        """Re-check ``vid``'s reads against committed state.

        At ``vid``'s commit point every earlier transaction has committed,
        so each logged read must match committed memory; the first mismatch
        (a real data-dependence violation) is returned.
        """
        for entry in self._reads.get(vid, ()):
            if memory.read(0, entry.addr) != entry.value_seen:
                return entry
        return None

    def pop(self, vid: int) -> None:
        self._reads.pop(vid, None)
        self._writes.pop(vid, None)

    def clear(self) -> None:
        self._reads.clear()
        self._writes.clear()
