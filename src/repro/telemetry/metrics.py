"""Typed metrics (counters / gauges / histograms) over the event bus.

:class:`MetricsRegistry` is the standalone container — any component may
create and update metrics directly.  :class:`MetricsSubscriber` derives a
standard set of metrics from the bus's per-step deltas, so attaching it to
a :class:`~repro.telemetry.bus.TelemetryBus` yields per-layer counters,
span histograms and counter-track gauges with no per-layer code:

* every event increments the counter ``l{layer}.{name}``;
* span events (``dur`` set) feed the histogram ``l{layer}.{name}.steps``;
* counter-style events (``value`` attr) update the gauge
  ``l{layer}.{name}.level`` (last value, peak, low).

Dumps: :meth:`MetricsRegistry.as_dict`, plus CSV/JSON writers in
:mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricsSubscriber"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-written value plus observed extremes."""

    __slots__ = ("name", "value", "peak", "low", "updates")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.peak = -math.inf
        self.low = math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value
        if value < self.low:
            self.low = value
        self.updates += 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "value": self.value,
            "peak": self.peak if self.updates else None,
            "low": self.low if self.updates else None,
            "updates": self.updates,
        }


class Histogram:
    """Streaming distribution summary (count/sum/min/max + fixed buckets).

    Buckets are cumulative powers of two over step durations — wide enough
    for any simulation span while keeping the summary O(1) per observation.
    """

    __slots__ = ("name", "count", "total", "min", "max", "bucket_counts")

    kind = "histogram"

    #: upper bounds of the cumulative buckets (last bucket is +inf)
    BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bucket_counts = [0] * (len(self.BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.observe_n(value, 1)

    def observe_n(self, value: float, n: int) -> None:
        """Record ``n`` identical observations in one update.

        The coalescing path of :class:`MetricsSubscriber` batches repeated
        values (e.g. the zero-retry case of ``l1.link_retries``) into a
        single bucket update per step instead of ``n``.
        """
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.BOUNDS):
            if value <= bound:
                self.bucket_counts[i] += n
                return
        self.bucket_counts[-1] += n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": round(self.mean, 4),
            "buckets": {
                **{f"le_{b}": c for b, c in zip(self.BOUNDS, self.bucket_counts)},
                "inf": self.bucket_counts[-1],
            },
        }


class MetricsRegistry:
    """Named metrics, created on first use, dumped as one dict."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def _get(self, name: str, cls) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Any:
        return self._metrics[name]

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """All metrics as ``{name: {kind, ...}}``, sorted by name."""
        return {name: self._metrics[name].as_dict() for name in self.names()}


class MetricsSubscriber:
    """Bus subscriber deriving the standard per-layer metrics.

    Every event bumps ``l{layer}.{name}`` (counter); spans additionally
    feed ``l{layer}.{name}.steps`` (histogram); counter-style events update
    the gauge ``l{layer}.{name}.level``.

    This subscriber is a pure aggregator: it has no ``on_event``, so the
    bus builds no event for it and delivers the coalesced per-step counter,
    observation and gauge deltas through :meth:`on_counters` /
    :meth:`on_observations` / :meth:`on_gauges` — one call and one cached
    metric lookup per distinct name per step, instead of an f-string plus
    registry lookup per message.
    """

    __slots__ = ("registry", "_counter_cache", "_hist_cache", "_gauge_cache")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: (layer, name) -> Counter, resolved once per distinct key
        self._counter_cache: Dict[Any, Counter] = {}
        #: (layer, name) -> (Counter, Histogram) for observation keys
        self._hist_cache: Dict[Any, Any] = {}
        #: (layer, name) -> Gauge
        self._gauge_cache: Dict[Any, Gauge] = {}

    def on_counters(self, deltas: Dict[Any, int]) -> None:
        """Apply one step's coalesced ``{(layer, name): n}`` deltas."""
        cache = self._counter_cache
        for key, n in deltas.items():
            counter = cache.get(key)
            if counter is None:
                counter = cache[key] = self.registry.counter(
                    f"l{key[0]}.{key[1]}"
                )
            counter.value += n

    def on_observations(self, deltas: Dict[Any, int]) -> None:
        """Apply coalesced ``{(layer, name, value): n}`` span observations.

        Each observation bumps the base counter and feeds the ``.steps``
        histogram.
        """
        cache = self._hist_cache
        for (layer, name, value), n in deltas.items():
            pair = cache.get((layer, name))
            if pair is None:
                base = f"l{layer}.{name}"
                pair = cache[(layer, name)] = (
                    self.registry.counter(base),
                    self.registry.histogram(base + ".steps"),
                )
            pair[0].value += n
            pair[1].observe_n(value, n)

    def on_gauges(self, deltas: Dict[Any, List[Any]]) -> None:
        """Apply coalesced ``{(layer, name): [last, peak, low, n]}`` samples."""
        cache = self._gauge_cache
        for key, (last, peak, low, n) in deltas.items():
            gauge = cache.get(key)
            if gauge is None:
                gauge = cache[key] = self.registry.gauge(
                    f"l{key[0]}.{key[1]}.level"
                )
            gauge.value = last
            if peak > gauge.peak:
                gauge.peak = peak
            if low < gauge.low:
                gauge.low = low
            gauge.updates += n

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return self.registry.as_dict()
