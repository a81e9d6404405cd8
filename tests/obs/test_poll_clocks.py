"""The poll-phase sampler against a brute-force merge of every poll.

``ObsSession.on_polls`` stamps each runnable-thread sample due inside a
poll phase with the clock of the poll that per-step execution would have
taken at that step.  ``_nth_poll_clocks`` computes those clocks from the
phase's arithmetic progressions; here they are checked against the
sorted list of every poll clock, for latencies no workload uses (every
``SpinUntil`` spins with the same cost).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.session import _nth_poll_clocks


def brute_force(polls):
    """Every poll's clock in step order: a thread's first poll at
    ``first_clock``, then one every ``latency`` cycles after ``start``."""
    clocks = []
    for _, first_clock, start, count, latency in polls:
        clocks.append(first_clock)
        clocks.extend(start + k * latency for k in range(1, count))
    return sorted(clocks)


@st.composite
def poll_phases(draw):
    polls = []
    for tid in range(draw(st.integers(1, 6))):
        # Far-apart first polls and mixed rates skew the poll count
        # against the clock, the worst case for interpolating probes.
        first_clock = draw(st.integers(0, 200))
        start = first_clock + draw(st.integers(0, 40))
        polls.append((tid, first_clock, start, draw(st.integers(1, 40)),
                      draw(st.integers(1, 20))))
    return polls


class TestNthPollClocks:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(poll_phases(), st.integers(1, 70), st.data())
    def test_matches_a_sorted_merge_of_every_poll(self, polls, every, data):
        clocks = brute_force(polls)
        total = len(clocks)
        first = data.draw(st.integers(1, total))
        ns = range(first, total + 1, every)
        assert _nth_poll_clocks(polls, ns) == [clocks[n - 1] for n in ns]

    def test_every_n_up_to_the_phase_total(self):
        # Unequal latencies, a single-poll thread, a thread whose first
        # poll precedes its start, and clock ties across threads.
        polls = [(0, 3, 3, 5, 4), (1, 2, 9, 4, 3), (2, 11, 11, 1, 7),
                 (3, 0, 5, 3, 6)]
        clocks = brute_force(polls)
        assert len(set(clocks)) < len(clocks)
        ns = range(1, len(clocks) + 1)
        assert _nth_poll_clocks(polls, ns) == clocks

    def test_single_polls(self):
        polls = [(0, 8, 8, 1, 4), (1, 8, 12, 1, 4), (2, 5, 5, 1, 1)]
        assert _nth_poll_clocks(polls, range(1, 4)) == [5, 8, 8]
