"""Line-granular backing store (main memory) for the simulated machine.

The simulator models memory values at word granularity (8 bytes by default,
8 words per 64-byte line as in Table 2) and stores them a line at a time:
every miss the caches send to memory and every writeback they send back
moves a whole line, so a line fill is one list copy and a writeback one
store.  Only committed, non-speculative data ever reaches main memory;
speculative versions live exclusively in the cache hierarchy (or, for
superseded non-speculative ``S-O`` copies, are written back here per
section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

DEFAULT_LINE_SIZE = 64
DEFAULT_WORD_SIZE = 8


@dataclass
class MainMemory:
    """Sparse word-addressable main memory, stored as ``line base ->
    word list``.

    Unwritten words read as zero, which matches a zero-initialised address
    space and keeps workload setup cheap.  Every stored list is owned by
    memory: ``read_line`` hands out copies and ``write_line`` keeps the list
    it is handed.
    """

    line_size: int = DEFAULT_LINE_SIZE
    word_size: int = DEFAULT_WORD_SIZE
    latency: int = 200
    _lines: Dict[int, List[int]] = field(default_factory=dict, init=False)
    reads: int = field(default=0, init=False)
    writebacks: int = field(default=0, init=False)
    #: Words in one line, fixed by the geometry (read on every fill and
    #: writeback, so computed once).
    words_per_line: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.line_size % self.word_size:
            raise ValueError("line size must be a multiple of word size")
        self.words_per_line = self.line_size // self.word_size

    def line_addr(self, addr: int) -> int:
        """Base address of the line containing byte address ``addr``."""
        return addr - (addr % self.line_size)

    def word_index(self, addr: int) -> int:
        """Index of ``addr``'s word within its line."""
        return (addr % self.line_size) // self.word_size

    def read_word(self, addr: int) -> int:
        """Read the word containing byte address ``addr`` (no timing)."""
        offset = addr % self.line_size
        line = self._lines.get(addr - offset)
        if line is None:
            return 0
        return line[offset // self.word_size]

    def write_word(self, addr: int, value: int) -> None:
        """Write ``value`` to the word containing ``addr`` (no timing)."""
        offset = addr % self.line_size
        line = self._lines.get(addr - offset)
        if line is None:
            line = self._lines[addr - offset] = [0] * self.words_per_line
        line[offset // self.word_size] = value

    def read_line(self, addr: int) -> List[int]:
        """Fetch a whole line as a fresh list of word values (counts as a
        read).  The list is the caller's: caches mutate it in place."""
        self.reads += 1
        line = self._lines.get(addr - (addr % self.line_size))
        if line is None:
            return [0] * self.words_per_line
        return line[:]

    def init_lines(self, addr: int, words: Sequence[int]) -> None:
        """Workload set-up: ``words`` back to back from line address
        ``addr``, stored a whole line at a time (the last padded with
        zeros) and, unlike :meth:`write_line`, counted as no writeback."""
        if addr % self.line_size:
            raise ValueError(f"0x{addr:x} is not a line address")
        per_line = self.words_per_line
        for i in range(0, len(words), per_line):
            self._lines[addr + i * self.word_size] = \
                [*words[i:i + per_line], *[0] * per_line][:per_line]

    def write_line(self, addr: int, data: List[int]) -> None:
        """Write back a whole line (counts as a writeback).  Memory keeps
        ``data`` by reference: the caller hands the list over."""
        if len(data) != self.words_per_line:
            raise ValueError(
                f"line data must have {self.words_per_line} words, got {len(data)}"
            )
        self.writebacks += 1
        self._lines[addr - (addr % self.line_size)] = data

    def footprint_lines(self) -> int:
        """Number of distinct lines ever written (for reporting)."""
        return len(self._lines)
