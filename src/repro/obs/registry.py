"""Low-overhead metrics registry: counters, gauges, labeled histograms.

Prometheus-flavoured naming (``aborts_total{cause="conflict"}``) over the
simulated machine: every series is identified by a metric name plus a
sorted tuple of ``(label, value)`` pairs, instruments are cached so the
hot-path cost of a repeat lookup is one dict probe, and
:meth:`MetricsRegistry.collect` renders everything in sorted order so two
identical runs produce byte-identical output (the same determinism
contract the sweep engine pins for reports).

The registry is passive — it never hooks anything itself.  The
:class:`~repro.obs.session.ObsSession` publishes into it from its tap
callbacks, and end-of-run totals (SystemStats, HierarchyStats, txctl
ContentionStats) are snapshotted in at finalize time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default cycle-latency buckets (powers of four up the commit range).
DEFAULT_CYCLE_BUCKETS: Tuple[int, ...] = (
    4, 16, 64, 256, 1024, 4096, 16384, 65536)

#: Finer-grained buckets for the svc tail-latency artifact: powers of
#: two give ~2x quantile resolution across the commit-latency and
#: queue-wait ranges the KV workloads produce (tens to tens of
#: thousands of cycles).
SVC_LATENCY_BUCKETS: Tuple[int, ...] = (
    8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
    16384, 32768, 65536, 131072, 262144)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Counter:
    """Monotone event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written (or peak-tracked) instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int) -> None:
        self.value = value

    def set_max(self, value: int) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket cumulative histogram (``le`` semantics + sum/count)
    over ascending bucket bounds."""

    __slots__ = ("buckets", "counts", "overflow", "total", "count",
                 "max_value")

    def __init__(self, buckets: Sequence[int] = DEFAULT_CYCLE_BUCKETS) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.total = 0
        self.count = 0
        self.max_value = 0

    def observe(self, value: int) -> None:
        self.total += value
        self.count += 1
        if value > self.max_value:
            self.max_value = value
        i = bisect_left(self.buckets, value)
        if i < len(self.counts):
            self.counts[i] += 1
        else:
            self.overflow += 1

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(le, count)`` pairs with counts accumulated, +Inf last."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((str(bound), running))
        out.append(("+Inf", running + self.overflow))
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile, linearly interpolated within its bucket.

        Bucketed estimate in the Prometheus ``histogram_quantile``
        style: find the bucket holding the ``q * count``-th observation
        and interpolate between its lower and upper bound.  The
        overflow bucket (values above the last bound) interpolates up
        to the tracked maximum, so tail quantiles stay finite and never
        exceed an actually-observed value.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction must be in [0, 1]: {q!r}")
        if self.count == 0:
            return 0.0
        if self.max_value == 0:
            # Every observation was zero (or the snapshot predates max
            # tracking and is all-zero anyway).
            return 0.0
        target = q * self.count
        running = 0
        lower = 0
        for bound, count in zip(self.buckets, self.counts):
            if count and running + count >= target:
                fraction = (target - running) / count
                value = lower + (bound - lower) * fraction
                return min(float(value), float(self.max_value))
            running += count
            lower = bound
        # Target lands in the overflow bucket: interpolate from the last
        # bound toward the observed maximum.
        if self.overflow:
            fraction = (target - running) / self.overflow
            fraction = min(max(fraction, 0.0), 1.0)
            top = max(self.max_value, lower)
            return float(lower + (top - lower) * fraction)
        return min(float(lower), float(self.max_value))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state (the per-series dict ``collect`` renders)."""
        return {
            "buckets": {le: count for le, count in self.cumulative()},
            "sum": self.total,
            "count": self.count,
            "max": self.max_value,
        }

    @classmethod
    def from_cumulative(cls, snapshot: Dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from a :meth:`snapshot`-shaped dict.

        Lets report consumers (the svc tail-latency artifact) compute
        quantiles from digests that crossed a process boundary as plain
        data.
        """
        bounds = sorted(int(le) for le in snapshot["buckets"]
                        if le != "+Inf")
        hist = cls(buckets=tuple(bounds))
        running = 0
        for i, bound in enumerate(bounds):
            cum = snapshot["buckets"][str(bound)]
            hist.counts[i] = cum - running
            running = cum
        hist.overflow = snapshot["buckets"].get("+Inf", running) - running
        hist.count = snapshot["count"]
        hist.total = snapshot["sum"]
        hist.max_value = snapshot.get("max", 0)
        return hist


class MetricsRegistry:
    """Caches instruments by ``(name, labels)``; renders deterministically."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- instrument accessors ------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str,
                  buckets: Optional[Sequence[int]] = None,
                  **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                buckets or DEFAULT_CYCLE_BUCKETS)
        return inst

    # -- output --------------------------------------------------------

    def collect(self) -> Dict[str, Any]:
        """JSON-ready snapshot, sorted for diffability."""
        counters = {f"{name}{_render_labels(labels)}": inst.value
                    for (name, labels), inst in self._counters.items()}
        gauges = {f"{name}{_render_labels(labels)}": inst.value
                  for (name, labels), inst in self._gauges.items()}
        histograms = {}
        for (name, labels), inst in self._histograms.items():
            histograms[f"{name}{_render_labels(labels)}"] = inst.snapshot()
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def format_text(self) -> str:
        """Exposition-style text dump, one series per line, sorted."""
        snap = self.collect()
        lines: List[str] = []
        for series, value in snap["counters"].items():
            lines.append(f"{series} {value}")
        for series, value in snap["gauges"].items():
            lines.append(f"{series} {value}")
        for series, hist in snap["histograms"].items():
            for le, count in hist["buckets"].items():
                lines.append(f'{series}_bucket{{le="{le}"}} {count}')
            lines.append(f"{series}_sum {hist['sum']}")
            lines.append(f"{series}_count {hist['count']}")
        return "\n".join(lines)
