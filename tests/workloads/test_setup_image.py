"""Workload set-up stores memory a line at a time.

Every suite workload sets up its data with ``MainMemory.init_lines``,
one list store per line, where it once wrote word by word with
``write_word``.  Two checks pin that it sets up the same memory:

* replayed word by word, the same set-up calls build the same ``_lines``
  image (so padding and whole-line stores lose nothing), and counts no
  read or writeback either way;
* the image, in line order, hashes to what the word-by-word set-up built
  (``WORD_BY_WORD``: sha256 prefix of ``repr(list(_lines.items()))`` and
  the line count, recorded from that code).
"""

import hashlib

import pytest

from repro.coherence.memory import MainMemory
from repro.core import HMTXSystem
from repro.smtx.system import SMTXSystem
from repro.workloads import BENCHMARK_NAMES, make_benchmark

WORD_BY_WORD = {
    ("052.alvinn", 0.25): ("935b409839811f46", 40),
    ("130.li", 0.25): ("5e8a76f62e2402f3", 226),
    ("164.gzip", 0.25): ("4721116f441385f4", 35),
    ("186.crafty", 0.25): ("819fd39cc77b404e", 518),
    ("197.parser", 0.25): ("13c62dc806cd67b3", 1028),
    ("256.bzip2", 0.25): ("722ced0512585caf", 90),
    ("456.hmmer", 0.25): ("9291fac87ef1a5f5", 14),
    ("ispell", 0.25): ("5916f232f3094213", 2064),
    ("052.alvinn", 1.0): ("73a0c5df76fdf0f4", 136),
    ("130.li", 1.0): ("d4341679e7b036fe", 232),
    ("164.gzip", 1.0): ("0d1bf736e071d9f5", 140),
    ("186.crafty", 1.0): ("47de4b0438f51c03", 536),
    ("197.parser", 1.0): ("91b6d8b23e0be545", 1038),
    ("256.bzip2", 1.0): ("2235fc5f21e91740", 360),
    ("456.hmmer", 1.0): ("afb2bd72a4c475f7", 44),
    ("ispell", 1.0): ("f657e4a37085988c", 2112),
}


class WordByWord:
    """Stands in for a system, its hierarchy and its memory: each
    ``init_lines`` call is replayed with one ``write_word`` per word into
    :attr:`image`."""

    def __init__(self) -> None:
        self.hierarchy = self.memory = self
        self.image = MainMemory()

    def init_lines(self, addr, words):
        for i, word in enumerate(words):
            self.image.write_word(addr + 8 * i, word)


def _image(memory):
    lines = list(memory._lines.items())
    digest = hashlib.sha256(repr(lines).encode()).hexdigest()[:16]
    return digest, len(lines)


@pytest.mark.parametrize("scale", [0.25, 1.0])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_line_setup_equals_word_by_word(name, scale):
    replay = WordByWord()
    make_benchmark(name, scale).setup(replay)
    for make in (HMTXSystem, SMTXSystem):
        system = make()
        make_benchmark(name, scale).setup(system)
        memory = system.hierarchy.memory
        assert memory._lines == replay.image._lines
        assert (memory.reads, memory.writebacks) == (0, 0)
        assert _image(memory) == WORD_BY_WORD[(name, scale)]


def test_init_lines_pads_and_rejects_unaligned():
    memory = MainMemory()
    memory.init_lines(0x40, list(range(1, 11)))
    assert memory._lines == {0x40: [1, 2, 3, 4, 5, 6, 7, 8],
                              0x80: [9, 10, 0, 0, 0, 0, 0, 0]}
    with pytest.raises(ValueError):
        memory.init_lines(0x48, [1])
