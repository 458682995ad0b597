"""Always-on metric primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricRegistry` hands out metrics keyed by (name, labels):
``snake_case`` (Prometheus) names, free-form label values, plain
dict-plus-float arithmetic and no locks (the simulator is one thread).
``counter`` / ``gauge`` / ``histogram`` put the metric in the dump at
once, at zero until updated.  A layer's hot-path handles come from
``bind_counter`` / ``bind_gauge`` / ``bind_histogram`` when its
telemetry is bound and enter the dump on their first update, as a
metric first resolved at that update would.  A *disabled* registry
hands out one shared null metric whose mutators are no-ops, the fast
path :mod:`benchmarks.bench_telemetry_overhead` bounds; the
:mod:`repro.telemetry` docstring says which lookups stay per event.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

#: Default histogram bucket upper bounds (seconds): spans sub-microsecond
#: data-plane costs through multi-second experiment durations.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing float."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "listed")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        #: In its registry's dump (see :meth:`MetricRegistry.bind_counter`).
        self.listed = False

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        self.listed = True

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {dict(self.labels)}, {self.value})"


class Gauge:
    """A value that can go up and down (heap depth, virtual clock, ...)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "listed")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.listed = False

    def set(self, value: float) -> None:
        self.value = value
        self.listed = True

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self.listed = True

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount
        self.listed = True

    def set_max(self, value: float) -> None:
        """High-water-mark update: keep the larger of old and new."""
        if value > self.value:
            self.value = value
        self.listed = True

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {dict(self.labels)}, {self.value})"


class Histogram:
    """Fixed-bucket histogram (cumulative rendering happens at export)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count",
                 "listed")

    def __init__(self, name: str, labels: LabelItems = (),
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or not buckets:
            raise ValueError("buckets must be a non-empty sorted sequence")
        self.name = name
        self.labels = labels
        self.bounds = tuple(buckets)
        # One count per finite bucket plus the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.listed = False

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        self.listed = True

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, {dict(self.labels)}, "
                f"count={self.count}, sum={self.sum})")


class _NullMetric:
    """The no-op counter, gauge and histogram of disabled registries."""

    __slots__ = ()
    name = ""
    labels: LabelItems = ()
    value = sum = mean = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    set = dec = set_max = observe = inc


NULL_COUNTER = NULL_GAUGE = NULL_HISTOGRAM = _NullMetric()


class MetricRegistry:
    """Keyed store of metrics; disabled registries cost (almost) nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> Tuple[str, LabelItems]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _resolve(self, cls, name: str, labels: Dict[str, object],
                 listed: bool, **kwargs):
        key = self._key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif metric.kind != cls.kind:
            raise TypeError(
                f"metric {name!r} already registered as a {metric.kind}"
            )
        if listed:
            metric.listed = True
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter, in the dump from now on (at zero until updated)."""
        return (self._resolve(Counter, name, labels, True) if self.enabled
                else NULL_COUNTER)

    def gauge(self, name: str, **labels) -> Gauge:
        return (self._resolve(Gauge, name, labels, True) if self.enabled
                else NULL_GAUGE)

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  **labels) -> Histogram:
        return (self._resolve(Histogram, name, labels, True,
                              buckets=buckets or DEFAULT_BUCKETS)
                if self.enabled else NULL_HISTOGRAM)

    def bind_counter(self, name: str, **labels) -> Counter:
        """A handle to hold and update per event: resolved now, in the
        dump from its first update (a never-updated handle adds nothing)."""
        return (self._resolve(Counter, name, labels, False) if self.enabled
                else NULL_COUNTER)

    def bind_gauge(self, name: str, **labels) -> Gauge:
        return (self._resolve(Gauge, name, labels, False) if self.enabled
                else NULL_GAUGE)

    def bind_histogram(self, name: str,
                       buckets: Optional[Tuple[float, ...]] = None,
                       **labels) -> Histogram:
        return (self._resolve(Histogram, name, labels, False,
                              buckets=buckets or DEFAULT_BUCKETS)
                if self.enabled else NULL_HISTOGRAM)

    # -- inspection: the dump's metrics only --------------------------------

    def get(self, name: str, **labels):
        """The metric, or None if it is not in the dump."""
        metric = self._metrics.get(self._key(name, labels))
        return metric if metric is not None and metric.listed else None

    def value(self, name: str, **labels) -> float:
        """Counter/gauge value (0.0 if absent) — test convenience."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0.0

    def snapshot(self) -> List[object]:
        """All metrics in the dump, ordered by (name, labels)."""
        return [metric for _key, metric in sorted(self._metrics.items())
                if metric.listed]

    def with_name(self, name: str) -> List[object]:
        return [m for m in self.snapshot() if m.name == name]

    def __len__(self) -> int:
        return len(self.snapshot())

    def __iter__(self) -> Iterable[object]:
        return iter(self.snapshot())
