"""gem5-style statistics dump for a finished run.

Collects every counter the simulator keeps — hierarchy traffic, per-cache
behaviour, VID comparator activity, transaction statistics, SLA activity,
branch prediction, directory/overflow extension counters — into one
structured report.  ``python -m repro run <bench> --stats`` prints it.
"""

from __future__ import annotations

from typing import List, Tuple

from ..txctl.causes import AbortCause
from ..txctl.livelock import EscalationLevel

Section = Tuple[str, List[Tuple[str, object]]]


def _stable_causes(by_cause) -> str:
    """Every taxonomy cause, zeros included — downstream diffing needs a
    run with no aborts and a run with aborts to expose the same keys."""
    return " ".join(f"{cause.value}={by_cause.get(cause.value, 0)}"
                    for cause in AbortCause)


def _stable_escalations(escalations) -> str:
    """Every livelock ladder rung above NORMAL, zeros included."""
    levels = [level for level in EscalationLevel
              if level is not EscalationLevel.NORMAL]
    return " ".join(f"{level}={escalations.get(str(level), 0)}"
                    for level in levels)


def collect_stats(result) -> List[Section]:
    """Structured statistics from a ParadigmResult."""
    system = result.system
    sections: List[Section] = []

    sections.append(("run", [
        ("workload", result.workload),
        ("paradigm", result.paradigm),
        ("cycles", result.cycles),
        ("recoveries", result.recoveries),
        ("degraded_serial", result.extra.get("degraded_serial", False)),
        ("ops_executed", result.run.ops_executed),
    ]))

    stats = system.stats
    sections.append(("transactions", [
        ("committed", stats.committed),
        ("aborted", stats.aborted),
        ("explicit_aborts", stats.explicit_aborts),
        ("spec_loads", stats.spec_loads),
        ("spec_stores", stats.spec_stores),
        ("avg_spec_accesses_per_tx", round(stats.avg_spec_accesses_per_tx, 1)),
        ("avg_read_set_kb", round(stats.avg_read_set_kb, 2)),
        ("avg_write_set_kb", round(stats.avg_write_set_kb, 2)),
        ("avg_combined_set_kb", round(stats.avg_combined_set_kb, 2)),
        ("vid_resets", stats.vid_resets),
    ]))

    # Emitted unconditionally, with every taxonomy/ladder key zero-filled:
    # the dump of a clean run and of an abort storm must diff line-by-line.
    contention = stats.contention
    sections.append(("contention (txctl)", [
        ("aborts", contention.aborts),
        ("by_cause", _stable_causes(contention.by_cause)),
        ("retries", contention.retries),
        ("backoff_cycles", contention.backoff_cycles),
        ("serialized_recoveries", contention.serialized_recoveries),
        ("escalations", _stable_escalations(contention.escalations)),
        ("fallback_entries", contention.fallback_entries),
        ("fallback_iterations", contention.fallback_iterations),
        ("serial_fallback", result.extra.get("serial_fallback", False)),
    ]))

    sections.append(("sla", [
        ("slas_sent", stats.slas_sent),
        ("pct_of_spec_loads",
         round(100 * stats.sla_fraction_of_spec_loads, 2)),
        ("wrong_path_loads", stats.wrong_path_loads),
        ("false_aborts_avoided", stats.false_aborts_avoided),
        ("false_aborts_triggered", stats.false_aborts_triggered),
    ]))

    exec_stats = result.extra.get("exec_stats")
    if exec_stats is not None:
        sections.append(("instruction mix", [
            ("instructions", exec_stats.instructions),
            ("loads", exec_stats.loads),
            ("stores", exec_stats.stores),
            ("branches", exec_stats.branches),
            ("branch_pct", round(100 * exec_stats.branch_fraction, 2)),
            ("mispredict_pct", round(100 * exec_stats.mispredict_rate, 3)),
        ]))

    hierarchy = getattr(system, "hierarchy", None)
    hstats = getattr(hierarchy, "stats", None)
    if hstats is not None and hasattr(hstats, "bus_snoops"):
        sections.append(("memory system", [
            ("loads", hstats.loads),
            ("stores", hstats.stores),
            ("coherence_transactions", hstats.bus_snoops),
            ("peer_transfers", hstats.peer_transfers),
            ("memory_fetches", hstats.memory_fetches),
            ("ss_invalidations", hstats.ss_invalidations),
            ("bus_wait_cycles", hstats.bus_wait_cycles),
            ("nonspec_overflows", hstats.nonspec_overflows),
            ("overflow_retrievals", hstats.overflow_retrievals),
            ("spec_overflow_spills", hstats.spec_overflow_spills),
            ("commit_broadcasts", hstats.commits),
            ("abort_broadcasts", hstats.aborts),
        ]))
        caches = []
        for cache in list(hierarchy.l1s) + list(hierarchy.llc_slices):
            total = cache.stats.hits + cache.stats.misses
            rate = 100 * cache.stats.hits / total if total else 0.0
            caches.append((cache.name,
                           f"hits={cache.stats.hits} misses={cache.stats.misses} "
                           f"({rate:.1f}% hit) versions+={cache.stats.version_copies} "
                           f"evictions={cache.stats.evictions}"))
        sections.append(("caches", caches))
        comparator = hierarchy.l1s[0].comparator
        sections.append(("vid comparators (L1[0])", [
            ("comparisons", comparator.total_comparisons),
            ("cascaded_pct", round(100 * comparator.cascade_fraction, 2)),
        ]))

    dir_stats = getattr(hierarchy, "dir_stats", None)
    if dir_stats is not None:
        sections.append(("directory", [
            ("lookups", dir_stats.lookups),
            ("probes_sent", dir_stats.probes_sent),
            ("stale_probes", dir_stats.stale_probes),
            ("invalidations_sent", dir_stats.invalidations_sent),
            ("bank_wait_cycles", dir_stats.bank_wait_cycles),
        ]))

    table = getattr(hierarchy, "overflow_table", None)
    if table is not None:
        sections.append(("overflow table", [
            ("spills", table.spills),
            ("refills", table.refills),
            ("resident_versions", table.resident_versions()),
        ]))
    return sections


def format_stats(sections: List[Section]) -> str:
    lines = []
    for title, rows in sections:
        lines.append(f"[{title}]")
        width = max((len(str(k)) for k, _ in rows), default=1)
        for key, value in rows:
            lines.append(f"  {str(key).ljust(width)}  {value}")
    return "\n".join(lines)


def stats_report(result) -> str:
    """One-call convenience: collect + format."""
    return format_stats(collect_stats(result))
