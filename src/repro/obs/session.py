"""The live observer: records one run's streams as a tap subscriber.

An :class:`ObsSession` is a plain subscriber of the instrumentation tap
(:mod:`repro.obs.tap`): :meth:`activate` makes it the run's observer, it
subscribes to every system and scheduler the run builds, and its
``before_*`` / ``after_*`` / ``failed_*`` callbacks record what they see.
It is also each scheduler's per-step observer
(:attr:`~repro.runtime.scheduler.Scheduler.observer`): the step loop
calls :meth:`~ObsSession.on_step` and :meth:`~ObsSession.on_op` directly,
and :meth:`~ObsSession.on_polls` for a poll phase of parked threads.

Recorded streams (all stamped in *simulated* cycles, ordered by one
shared monotone ``seq``):

* **op samples** — one ``[seq, tid, start, latency, vid, pretag]`` row
  per executed core op, from the scheduler's ``on_op`` call (which
  passes the op's start cycle), and one per thread per poll phase from
  ``on_polls``, covering that thread's back-to-back spin polls.
  ``pretag`` is an optional category
  assigned at record time (spin retags, overflow flags); final
  attribution happens in :mod:`repro.obs.profile`.
* **events** — transaction lifecycle points (allocate/begin/commit/
  conflict/abort/vid_reset/stall) as small dicts.
* **spans** — :class:`~repro.obs.timeline.TxSpan` per transaction
  attempt.
* **metrics** — published into a :class:`~repro.obs.registry.
  MetricsRegistry` live (commits, aborts by cause, commit latency,
  footprint peaks) plus an end-of-run snapshot of SystemStats /
  HierarchyStats / ContentionStats totals.

One session observes one run: callbacks read the latest attached system
and scheduler.
"""

from __future__ import annotations

from functools import partialmethod
from typing import Any, Dict, List, Optional, Tuple

from ..cpu.isa import Arrive
from ..errors import MisspeculationError
from . import tap
from .registry import SVC_LATENCY_BUCKETS, MetricsRegistry
from .timeline import TxSpan

#: How often (scheduler steps) the runnable-thread counter is sampled.
RUNNABLE_SAMPLE_EVERY = 64

#: Cycle-attribution categories (see profile.py / DESIGN.md §11).
CATEGORIES = ("useful", "commit_stall", "vid_reset", "abort_replay",
              "queue_wait", "overflow", "idle")


def _nth_poll_clock(polls, n: int, floor: int) -> int:
    """Clock of the ``n``-th poll (1-based) of a poll phase, in step order.

    A thread's polls are taken at ``first_clock`` and then at ``start +
    k * latency`` for ``k`` in ``1..count-1``; step order sorts them by
    clock.  Binary search for the smallest clock with at least ``n``
    polls at or before it; ``floor`` is a known lower bound.
    """
    def taken_by(clock: int) -> int:
        taken = 0
        for _, first_clock, start, count, latency in polls:
            if first_clock <= clock:
                taken += 1
                if count > 1 and clock >= start + latency:
                    taken += min(count - 1, (clock - start) // latency)
        return taken

    low = floor
    high = max(start + (count - 1) * latency
               for _, _, start, count, latency in polls)
    while low < high:
        mid = (low + high) // 2
        if taken_by(mid) >= n:
            high = mid
        else:
            low = mid + 1
    return low


class ObsSession:
    """One observed run: recorded streams plus the metrics registry."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: ``[seq, tid, start, latency, vid, pretag]`` per executed op.
        self.samples: List[list] = []
        self.events: List[Dict[str, Any]] = []
        self.spans: List[TxSpan] = []
        self.line_access_counts: Dict[int, int] = {}
        self.line_conflict_counts: Dict[int, int] = {}
        self.footprint_track: List[Tuple[int, int]] = []
        self.runnable_track: List[Tuple[int, int]] = []
        self.live_vid_track: List[Tuple[int, int]] = []
        self.thread_cores: Dict[int, int] = {}
        #: tid -> socket (0 for every thread on a flat machine), filled at
        #: finalize from the scheduler's core map + the machine topology.
        self.thread_sockets: Dict[int, int] = {}
        self.stall_cycles_total = 0
        self.quiesce_cycles_total = 0
        self.makespan = 0
        self._seq = 0
        self._steps = 0
        self._open_spans: Dict[int, TxSpan] = {}
        self._attempts: Dict[int, int] = {}
        self._systems: List[Any] = []
        self._schedulers: List[Any] = []
        self._system: Any = None
        self._scheduler: Any = None
        self._line_size = 64
        #: Machine topology of the attached system (None when flat).
        self.topology = None
        self._current_tid: Optional[int] = None
        self._current_thread: Optional[Any] = None
        self._op_overflow = False
        #: Hierarchy stats holding overflow counters (None if absent).
        self._overflow_stats: Any = None
        self._overflow_before = 0
        self._footprint_of: Any = None
        self._previous_vid = 0
        self._tid_sample_idx: Dict[int, List[int]] = {}
        #: vid -> (arrival_ts, queue_wait) of the latest open-loop
        #: request attempt; flushed into the svc histograms at commit so
        #: aborted attempts never double-count (committed-attempt
        #: semantics).
        self._svc_pending: Dict[int, Tuple[int, int]] = {}
        self._svc_hists = None
        self._finalized = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def activate(self):
        """Context manager installing this session as the run observer."""
        return tap.Tap(self).activate()

    def detach(self) -> None:
        """Stop observing (idempotent); the tap restores every method no
        other subscriber still observes."""
        tap.unsubscribe(self)
        for scheduler in self._schedulers:
            if scheduler.observer is self:
                scheduler.observer = None

    def finalize(self, result=None) -> None:
        """Freeze end-of-run state: thread map, makespan, stats snapshot."""
        if self._finalized:
            return
        self._finalized = True
        for scheduler in self._schedulers:
            socket_of = scheduler.system.config.socket_of_core
            for thread in scheduler.threads:
                self.thread_cores[thread.tid] = thread.core
                self.thread_sockets[thread.tid] = socket_of(thread.core)
                if thread.clock > self.makespan:
                    self.makespan = thread.clock
        if result is not None and result.cycles > self.makespan:
            self.makespan = result.cycles
        for system in self._systems:
            self._snapshot_stats(system)

    def all_spans(self) -> List[TxSpan]:
        """Closed spans plus any still-open ones (outcome ``open``)."""
        tail = []
        for vid in sorted(self._open_spans):
            span = self._open_spans[vid]
            if span.end_ts is None:
                span.end_ts = self.makespan
            tail.append(span)
        return self.spans + tail

    # ------------------------------------------------------------------
    # Attach points (forwarded by the active tap, or called directly)
    # ------------------------------------------------------------------

    def attach_system(self, system) -> None:
        self._systems.append(system)
        self._system = system
        stats = getattr(system, "stats", None)
        self._line_size = getattr(stats, "line_size", 64)
        config = getattr(system, "config", None)
        if config is not None:
            self.topology = getattr(config, "topology", None)
        hierarchy = getattr(system, "hierarchy", None)
        hstats = getattr(hierarchy, "stats", None)
        self._overflow_stats = hstats \
            if hasattr(hstats, "spec_overflow_spills") else None
        self._footprint_of = getattr(hierarchy,
                                     "speculative_footprint_bytes", None)
        registry = self.registry
        self._access_counters = {
            (kernel, is_store): registry.counter(
                "mem_accesses_total", kind="store" if is_store else "load",
                space="kernel" if kernel else "user")
            for kernel in (False, True) for is_store in (False, True)}
        self._footprint_peak = registry.gauge("spec_footprint_bytes_peak")
        self._commits = registry.counter("tx_commits_total")
        self._commit_latency = registry.histogram("commit_latency_cycles")
        self._resets = registry.counter("vid_resets_total")
        tap.subscribe(system, self)

    def attach_scheduler(self, scheduler) -> None:
        self._schedulers.append(scheduler)
        self._scheduler = scheduler
        self._stall_counter = self.registry.counter(
            "backoff_stall_cycles_total")
        self._quiesce_counter = self.registry.counter(
            "vid_reset_quiesce_cycles_total")
        tap.subscribe(scheduler, self)
        scheduler.observer = self

    def record_spin(self, category: str, vid: int, count: int) -> None:
        """Retag the current thread's last ``count`` op samples as a stall.

        Called by the spin helpers in ``runtime.paradigms.base`` when a
        spin (commit ordering, VID-reset quiesce) ends: the trailing
        samples of the spinning thread are exactly its polls (one per
        single poll, one per bulk-charged poll phase) and any reset op,
        executed while this hook's caller was the running generator.
        """
        indices = self._tid_sample_idx.get(self._current_tid)
        if not indices or count <= 0:
            return
        cycles = 0
        for idx in indices[-count:]:
            row = self.samples[idx]
            if row[5] is None:
                row[5] = category
            if vid:
                row[4] = vid
            cycles += row[3]
        self.registry.counter("spin_cycles_total", category=category) \
            .inc(cycles)

    def _svc_histograms(self):
        """The open-loop latency instruments, created on first arrival.

        Lazy so observed runs of non-service workloads keep their metric
        snapshots free of empty svc series.
        """
        if self._svc_hists is None:
            self._svc_hists = (
                self.registry.histogram("svc_queue_wait_cycles",
                                        buckets=SVC_LATENCY_BUCKETS),
                self.registry.histogram("svc_commit_latency_cycles",
                                        buckets=SVC_LATENCY_BUCKETS))
        return self._svc_hists

    # ------------------------------------------------------------------
    # Clock resolution
    # ------------------------------------------------------------------

    def _now(self) -> int:
        """The stepping thread's clock: the time of events raised in its
        generator (VID allocation and reset) or by an interrupt handler
        after its op."""
        thread = self._current_thread
        return thread.clock if thread is not None else 0

    def _op_now(self) -> int:
        """The running core op's start cycle: the time of events the
        backend raises inside a user-level op (access, begin, commit,
        abort)."""
        thread = self._current_thread
        return self._scheduler.op_start(thread) if thread is not None else 0

    def _event(self, kind: str, ts: Optional[int] = None,
               **fields) -> Dict[str, Any]:
        self._seq += 1
        event: Dict[str, Any] = {
            "seq": self._seq, "ts": self._now() if ts is None else ts,
            "kind": kind}
        event.update(fields)
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _open_span(self, vid: int, ts: int,
                   begin_ts: Optional[int] = None) -> TxSpan:
        stale = self._open_spans.pop(vid, None)
        if stale is not None:
            stale.end_ts = ts
            stale.outcome = "orphaned"
            self.spans.append(stale)
        attempt = self._attempts.get(vid, 0)
        self._attempts[vid] = attempt + 1
        span = TxSpan(vid=vid, attempt=attempt, allocate_ts=ts,
                      tid=self._current_tid, begin_ts=begin_ts)
        self._open_spans[vid] = span
        self.live_vid_track.append((ts, len(self._open_spans)))
        return span

    def _close_span(self, vid: int, ts: int, outcome: str,
                    cause: Optional[str] = None) -> None:
        span = self._open_spans.pop(vid, None)
        if span is None:
            # Commit of a VID whose begin predates our attach — synthesize
            # a degenerate span so counts still reconcile.
            attempt = self._attempts.get(vid, 0)
            self._attempts[vid] = attempt + 1
            span = TxSpan(vid=vid, attempt=attempt, allocate_ts=ts,
                          tid=self._current_tid, begin_ts=ts)
        span.end_ts = ts
        span.outcome = outcome
        span.cause = cause
        self.spans.append(span)
        self.live_vid_track.append((ts, len(self._open_spans)))

    def _on_misspeculation(self, err: MisspeculationError, cause, ts: int,
                           addr=None, op: str = "") -> None:
        """Record the conflict and the abort of a classified misspeculation."""
        cause = cause.value
        bad_addr = getattr(err, "addr", -1)
        if bad_addr in (None, -1):
            bad_addr = addr
        if bad_addr is not None:
            line = bad_addr - (bad_addr % self._line_size)
            self.line_conflict_counts[line] = \
                self.line_conflict_counts.get(line, 0) + 1
        self._event("conflict", ts=ts, vid=err.vid, addr=bad_addr,
                    cause=cause, op=op)
        self._event("abort", ts=ts, vid=err.vid, cause=cause)
        self.registry.counter("aborts_total", cause=cause).inc()
        for vid in list(self._open_spans):
            if vid == err.vid:
                self._close_span(vid, ts, "abort", cause)
            else:
                self._close_span(vid, ts, "squashed")

    # ------------------------------------------------------------------
    # System callbacks
    # ------------------------------------------------------------------

    def _before_access(self, tid, addr, *rest, **kwargs) -> None:
        hstats = self._overflow_stats
        if hstats is not None:
            self._overflow_before = (hstats.spec_overflow_spills
                                     + hstats.overflow_retrievals)

    def _after_access(self, kernel: bool, is_store: bool, result, tid, addr,
                      *rest, **kwargs) -> None:
        line = addr - (addr % self._line_size)
        counts = self.line_access_counts
        counts[line] = counts.get(line, 0) + 1
        self._access_counters[kernel, is_store].inc()
        if not kernel:
            ctx = self._system.contexts.get(tid)
            vid = ctx.vid if ctx is not None else 0
            if vid:
                span = self._open_spans.get(vid)
                if span is not None:
                    if is_store:
                        span.stores += 1
                    else:
                        span.loads += 1
        hstats = self._overflow_stats
        if hstats is not None and self._overflow_before != (
                hstats.spec_overflow_spills + hstats.overflow_retrievals):
            self._op_overflow = True
        footprint_of = self._footprint_of
        if footprint_of is not None \
                and getattr(result, "created_version", False):
            footprint = footprint_of()
            self._footprint_peak.set_max(footprint)
            self.footprint_track.append(
                (self._now() if kernel else self._op_now(), footprint))

    def _failed_access(self, kernel: bool, name: str, err, cause, tid, addr,
                       *rest, **kwargs) -> None:
        self._on_misspeculation(
            err, cause, self._now() if kernel else self._op_now(),
            addr=addr, op=name)

    before_load = before_store = _before_access
    before_kernel_load = before_kernel_store = _before_access
    after_load = partialmethod(_after_access, False, False)
    after_store = partialmethod(_after_access, False, True)
    after_kernel_load = partialmethod(_after_access, True, False)
    after_kernel_store = partialmethod(_after_access, True, True)
    failed_load = partialmethod(_failed_access, False, "load")
    failed_store = partialmethod(_failed_access, False, "store")
    failed_kernel_load = partialmethod(_failed_access, True, "kernel_load")
    failed_kernel_store = partialmethod(_failed_access, True, "kernel_store")

    def before_begin_mtx(self, tid, vid) -> None:
        ctx = self._system.contexts.get(tid)
        self._previous_vid = ctx.vid if ctx is not None else 0

    def after_begin_mtx(self, latency, tid, vid) -> None:
        ts = self._op_now()
        if vid == 0:
            if self._previous_vid:
                span = self._open_spans.get(self._previous_vid)
                if span is not None and span.exec_end_ts is None:
                    span.exec_end_ts = ts
        else:
            span = self._open_spans.get(vid)
            if span is None:
                span = self._open_span(vid, ts, begin_ts=ts)
            elif span.begin_ts is None:
                span.begin_ts = ts
                span.tid = tid
            self._event("begin", ts=ts, tid=tid, vid=vid)

    def after_commit_mtx(self, latency, tid, vid) -> None:
        ts = self._op_now()
        self._event("commit", ts=ts, tid=tid, vid=vid)
        self._commits.inc()
        if isinstance(latency, int):
            self._commit_latency.observe(latency)
        pending = self._svc_pending.pop(vid, None)
        if pending is not None:
            arrival_ts, queue_wait = pending
            queue_hist, sojourn_hist = self._svc_histograms()
            queue_hist.observe(queue_wait)
            sojourn_hist.observe(max(0, ts - arrival_ts))
        self._close_span(vid, ts, "commit")

    def _failed_tx(self, name: str, err, cause, tid, vid) -> None:
        self._on_misspeculation(err, cause, self._op_now(), op=name)

    failed_commit_mtx = partialmethod(_failed_tx, "commit_mtx")
    failed_abort_mtx = partialmethod(_failed_tx, "abort_mtx")

    def after_allocate_vid(self, vid) -> None:
        ts = self._now()
        self._open_span(vid, ts)
        self._event("allocate", ts=ts, vid=vid, tid=self._current_tid)

    def after_vid_reset(self, latency) -> None:
        self._event("vid_reset")
        self._resets.inc()

    # ------------------------------------------------------------------
    # Scheduler callbacks
    # ------------------------------------------------------------------

    def on_step(self, thread) -> None:
        """Per-step observer: ``thread``'s generator is about to resume."""
        self._current_tid = thread.tid
        self._current_thread = thread
        self._op_overflow = False
        self._steps += 1
        if self._steps % RUNNABLE_SAMPLE_EVERY == 0:
            self.runnable_track.append((thread.clock, self._runnable()))

    def on_polls(self, polls) -> None:
        """Batched per-step observer: one poll phase of the scheduler.

        ``polls`` holds one ``(thread, first_clock, start, count,
        latency)`` entry per parked thread: ``count`` polls of ``latency``
        cycles, back to back from ``start``, the first taken when the
        thread's clock was ``first_clock``.  Per-step execution would
        have called :meth:`on_step` and :meth:`on_op` once per poll, in
        ``(clock, tid)`` order across the threads; this records the same:
        one op sample per thread covering all its polls (the attribution
        and the timeline see contiguous same-VID samples either way), the
        step count, and the runnable-thread samples due inside the phase.
        """
        contexts = self._system.contexts
        samples = self.samples
        index = self._tid_sample_idx
        before = self._steps
        for thread, _, start, count, latency in polls:
            tid = thread.tid
            ctx = contexts.get(tid)
            self._seq += 1
            index.setdefault(tid, []).append(len(samples))
            samples.append([self._seq, tid, start, count * latency,
                            ctx.vid if ctx is not None else 0, None])
            self._steps += count
        every = RUNNABLE_SAMPLE_EVERY
        due = before - before % every + every
        if due <= self._steps:
            runnable = self._runnable()
            floor = min(entry[1] for entry in polls)
            for step in range(due, self._steps + 1, every):
                floor = _nth_poll_clock(polls, step - before, floor)
                self.runnable_track.append((floor, runnable))

    def _runnable(self) -> int:
        return sum(1 for t in self._scheduler.threads
                   if not t.done and t.blocked_on is None
                   and t.blocked_produce is None)

    def before_stall_all(self, cycles) -> None:
        if cycles > 0:
            self.stall_cycles_total += cycles
            self._event("stall", ts=self._scheduler.now(), cycles=cycles)
            self._stall_counter.inc(cycles)

    def before_quiesce_all(self, cycles) -> None:
        if cycles > 0:
            self.quiesce_cycles_total += cycles
            self._event("quiesce", ts=self._scheduler.now(), cycles=cycles)
            self._quiesce_counter.inc(cycles)

    def on_op(self, tid, op, start, value, latency) -> None:
        """Per-step observer: a core op started at ``start`` returned."""
        ctx = self._system.contexts.get(tid)
        vid = ctx.vid if ctx is not None else 0
        self._seq += 1
        pretag = "overflow" if self._op_overflow else None
        index = len(self.samples)
        self.samples.append([self._seq, tid, start, latency, vid, pretag])
        self._tid_sample_idx.setdefault(tid, []).append(index)
        if type(op) is Arrive:
            # The executor hands back the accumulated queue wait (0 when
            # the core idled until the arrival).  Speculative requests
            # settle at commit; VID-0 (serial-fallback) requests have no
            # commit, so record them here.
            queue_wait = value if isinstance(value, int) else 0
            if vid:
                self._svc_pending[vid] = (op.ts, queue_wait)
            else:
                queue_hist, _ = self._svc_histograms()
                queue_hist.observe(queue_wait)

    # ------------------------------------------------------------------
    # End-of-run metric snapshot + reconciliation
    # ------------------------------------------------------------------

    def _snapshot_stats(self, system) -> None:
        registry = self.registry
        stats = getattr(system, "stats", None)
        if stats is not None:
            registry.counter("spec_accesses_total", kind="load") \
                .inc(stats.spec_loads)
            registry.counter("spec_accesses_total", kind="store") \
                .inc(stats.spec_stores)
            registry.counter("slas_sent_total").inc(stats.slas_sent)
            registry.counter("wrong_path_loads_total") \
                .inc(stats.wrong_path_loads)
            contention = stats.contention
            registry.counter("txctl_retries_total").inc(contention.retries)
            registry.counter("txctl_backoff_cycles_total") \
                .inc(contention.backoff_cycles)
            registry.counter("txctl_serialized_recoveries_total") \
                .inc(contention.serialized_recoveries)
            registry.counter("txctl_fallback_entries_total") \
                .inc(contention.fallback_entries)
            registry.counter("txctl_fallback_iterations_total") \
                .inc(contention.fallback_iterations)
            for level, count in sorted(contention.escalations.items()):
                registry.counter("txctl_escalations_total",
                                 level=level).inc(count)
        hierarchy = getattr(system, "hierarchy", None)
        hstats = getattr(hierarchy, "stats", None)
        if hasattr(hstats, "bus_snoops"):
            for name in ("loads", "stores", "bus_snoops", "peer_transfers",
                         "memory_fetches", "ss_invalidations",
                         "bus_wait_cycles", "nonspec_overflows",
                         "overflow_retrievals", "spec_overflow_spills"):
                registry.counter(f"coherence_{name}_total") \
                    .inc(getattr(hstats, name))
            for cache in list(hierarchy.l1s) + list(hierarchy.llc_slices):
                registry.counter("cache_hits_total",
                                 cache=cache.name).inc(cache.stats.hits)
                registry.counter("cache_misses_total",
                                 cache=cache.name).inc(cache.stats.misses)
                registry.counter("cache_version_copies_total",
                                 cache=cache.name) \
                    .inc(cache.stats.version_copies)

    def reconcile(self, stats) -> Dict[str, Any]:
        """Check observed lifecycle events against SystemStats totals.

        The acceptance contract: per-VID commit spans and abort-cause
        counters must match the system's own accounting *exactly* — the
        session's callbacks sit outside the backend, so every commit and
        every classified abort reaches them exactly once.
        """
        commits_observed = sum(1 for s in self.all_spans()
                               if s.outcome == "commit")
        aborts_observed = sum(1 for e in self.events if e["kind"] == "abort")
        by_cause_observed: Dict[str, int] = {}
        for event in self.events:
            if event["kind"] == "abort":
                cause = event["cause"]
                by_cause_observed[cause] = by_cause_observed.get(cause, 0) + 1
        by_cause_stats = {k: v for k, v in stats.contention.by_cause.items()
                          if v}
        checks = {
            "commits": {"observed": commits_observed,
                        "stats": stats.committed},
            "aborts": {"observed": aborts_observed, "stats": stats.aborted},
            "aborts_by_cause": {"observed": by_cause_observed,
                                "stats": by_cause_stats},
        }
        ok = all(c["observed"] == c["stats"] for c in checks.values())
        return {"ok": ok, "checks": checks}
