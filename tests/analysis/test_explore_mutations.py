"""Mutation tests: every EX rule bites.

Each injection breaks the real machine in one specific way; the explorer
must catch it, the reported rules must stay inside the expected set, and
every finding must carry a minimized counterexample that replays to the
same failure from scratch — the committed-regression contract.
"""

import pytest

from repro.analysis.explore import (EXPECTED_INJECTION_RULES, INJECTION_SHAPES,
                                    INJECTIONS, explore_pass,
                                    replay_counterexample)

CASES = [(inject, shape) for inject in sorted(INJECTIONS)
         for shape in INJECTION_SHAPES[inject]]


@pytest.fixture(scope="module")
def reports():
    cache = {}
    for inject, shape in CASES:
        cache[(inject, shape)] = explore_pass(
            preset="small", shapes=(shape,), inject=inject)
    return cache


@pytest.mark.parametrize("inject,shape", CASES)
def test_injection_is_caught(reports, inject, shape):
    report = reports[(inject, shape)]
    rules = {f.rule for f in report.findings}
    assert rules, f"{inject} on {shape} was not caught"
    assert rules <= EXPECTED_INJECTION_RULES[inject], \
        f"{inject} tripped unexpected rules {rules}"


@pytest.mark.parametrize("inject,shape", CASES)
def test_minimized_counterexamples_replay_to_failure(reports, inject, shape):
    report = reports[(inject, shape)]
    for finding in report.findings[:3]:
        doc = finding.counterexample
        assert doc is not None
        assert doc["inject"] == inject and doc["shape"] == shape
        assert doc["rule"] in replay_counterexample(doc)


@pytest.mark.parametrize("inject", sorted(INJECTIONS))
def test_minimized_schedules_are_1_minimal(reports, inject):
    # Dropping any single event from a ddmin result must break the repro
    # (1-minimality is what delta debugging guarantees).
    shape = INJECTION_SHAPES[inject][0]
    doc = reports[(inject, shape)].findings[0].counterexample
    schedule = doc["schedule"]
    for i in range(len(schedule)):
        shorter = dict(doc, schedule=schedule[:i] + schedule[i + 1:])
        if not shorter["schedule"]:
            continue
        assert doc["rule"] not in replay_counterexample(shorter), \
            f"{inject}: schedule {schedule} not 1-minimal at index {i}"


def test_every_rule_is_killed_by_some_mutation():
    covered = set()
    for inject in INJECTIONS:
        covered |= EXPECTED_INJECTION_RULES[inject]
    assert covered == {"EX001", "EX002", "EX003", "EX004"}


@pytest.mark.parametrize("shape", INJECTION_SHAPES["broken-scrub"])
def test_broken_scrub_is_caught_on_the_scrub_preset(shape):
    """On ``scrub`` the residue lands in a full L1 set; it takes a way
    there instead of over-filling the set, and is still caught."""
    report = explore_pass(preset="scrub", shapes=(shape,),
                          inject="broken-scrub")
    rules = {f.rule for f in report.findings}
    assert rules and rules <= EXPECTED_INJECTION_RULES["broken-scrub"]
    doc = report.findings[0].counterexample
    assert doc["rule"] in replay_counterexample(doc)
