"""Serving observability: counters, gauges, and histograms.

Fleet-scale monitoring lives or dies on cheap, always-on metrics (the
lesson of large-cluster reliability studies): every admission decision,
batch flush, and prediction emission in :mod:`repro.serve` increments a
metric here.  The registry renders both a machine-readable dict and the
operator-facing text report that ``examples/serve_fleet.py`` prints.

Everything is plain Python — no background threads, no sampling clocks —
so recorded values are exactly reproducible for a deterministic workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


@dataclass
class Counter:
    """Monotonically increasing event count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) events; ``n`` must be non-negative."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n


@dataclass
class Gauge:
    """Point-in-time level (queue depth, warm models, active sessions)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the current level."""
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        """Raise the level by ``n`` (default 1) — no read-modify-write."""
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        """Lower the level by ``n`` (default 1)."""
        self.value -= n


@dataclass
class Histogram:
    """Distribution of observations with percentile summaries.

    Observations are kept exactly (bounded by ``capacity``); once full,
    every second retained sample is dropped and the stride between kept
    samples doubles — a deterministic decimation that preserves coverage
    of the whole run without unbounded memory.
    """

    name: str
    capacity: int = 65536
    _values: list[float] = field(default_factory=list, repr=False)
    _stride: int = field(default=1, repr=False)
    _seen_since_kept: int = field(default=0, repr=False)
    count: int = 0
    total: float = 0.0
    # True extremes over *all* observations: decimation drops samples, so
    # min/max over the retained ``_values`` would silently lose outliers.
    _min: float = field(default=math.inf, repr=False)
    _max: float = field(default=-math.inf, repr=False)

    def __post_init__(self):
        if self.capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {self.capacity}")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"observation must be finite, got {value}")
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._seen_since_kept += 1
        if self._seen_since_kept >= self._stride:
            self._values.append(value)
            self._seen_since_kept = 0
            if len(self._values) >= self.capacity:
                self._values = self._values[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` in [0, 100].

        Interior percentiles come from the retained samples (approximate
        once decimation has dropped samples).  ``q=0`` and ``q=100``
        return the exact tracked ``min``/``max`` — decimation may have
        dropped the extreme sample, so the retained-sample extremes can
        silently disagree with the true ones.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return float("nan")
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        if not self._values:
            return float("nan")
        ordered = sorted(self._values)
        rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
        return ordered[rank]

    def summary(self) -> dict:
        """Count, mean, min/max and the p50/p95/p99 operator percentiles."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self._min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self._max,
        }

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram; returns self.

        Counts, totals, and true min/max combine exactly.  Retained
        samples are concatenated (percentiles re-sort on demand), so as
        long as neither side has decimated (count < capacity on both —
        the common case for per-run fleet aggregation) the merged
        percentiles are *exact*: identical to a single histogram that
        observed every sample.  Once a side has decimated, the merge is
        as approximate as that side already was.  The merged sample list
        may transiently exceed ``capacity``; the next :meth:`observe`
        re-applies decimation.
        """
        if other.count == 0:
            return self
        self.count += other.count
        self.total += other.total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        self._values.extend(other._values)
        self._stride = max(self._stride, other._stride)
        return self


class MetricsRegistry:
    """Named metric store shared across the serving components.

    ``counter``/``gauge``/``histogram`` create on first use and return the
    existing instrument afterwards, so components can reference metrics by
    name without wiring ceremony.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str, *, capacity: int = 65536) -> Histogram:
        """Get or create the histogram called ``name``.

        ``capacity`` only takes effect on first creation; a later lookup
        with a different capacity returns the existing instrument
        unchanged.  (Fleet merges rely on this: the destination histogram
        is created with the *source's* capacity so decimation behavior
        survives aggregation.)
        """
        hist = self._histograms.get(name)
        if hist is None:
            # get-or-create without setdefault: constructing a throwaway
            # Histogram per lookup would cost an allocation on every
            # hot-path observe.
            hist = self._histograms[name] = Histogram(name, capacity=capacity)
        return hist

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's instruments into this one; returns self.

        The fleet router aggregates per-worker registries this way:
        counters add, gauges *sum* (per-worker queue depths and session
        counts sum to the fleet level), and histograms merge via
        :meth:`Histogram.merge` — percentile summaries over the union of
        samples, never a flattened average-of-averages.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).inc(gauge.value)
        for name, hist in other._histograms.items():
            self.histogram(name, capacity=hist.capacity).merge(hist)
        return self

    def cumulative(self) -> "MetricsRegistry":
        """A copy of the counters and histograms, without the gauges.

        Counters and histograms record what happened; gauges hold a live
        level (queue depth, active sessions) that stops being true once
        the component is gone.  The fleet router keeps this much of a
        worker it removes.
        """
        out = MetricsRegistry().merge(self)
        out._gauges.clear()
        return out

    def as_dict(self) -> dict:
        """Snapshot every metric as plain values (histograms summarized)."""
        out: dict = {}
        for name, c in sorted(self._counters.items()):
            out[name] = c.value
        for name, g in sorted(self._gauges.items()):
            out[name] = g.value
        for name, h in sorted(self._histograms.items()):
            out[name] = h.summary()
        return out

    def report(self) -> str:
        """Operator-facing text report, one metric per line."""
        lines: list[str] = []
        width = max(
            (len(n) for n in (*self._counters, *self._gauges, *self._histograms)),
            default=0,
        )
        for name, c in sorted(self._counters.items()):
            lines.append(f"{name:<{width}}  {c.value}")
        for name, g in sorted(self._gauges.items()):
            lines.append(f"{name:<{width}}  {g.value:g}")
        for name, h in sorted(self._histograms.items()):
            s = h.summary()
            if s["count"] == 0:
                lines.append(f"{name:<{width}}  (no observations)")
                continue
            lines.append(
                f"{name:<{width}}  n={s['count']} mean={s['mean']:.4g} "
                f"p50={s['p50']:.4g} p95={s['p95']:.4g} "
                f"p99={s['p99']:.4g} max={s['max']:.4g}"
            )
        return "\n".join(lines)
