"""Typed metrics and the event-driven MetricsSubscriber."""

import math

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSubscriber,
    TelemetryBus,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert c.as_dict() == {"kind": "counter", "value": 6}


class TestGauge:
    def test_tracks_value_and_extremes(self):
        g = Gauge("x")
        g.set(5)
        g.set(2)
        g.set(9)
        assert (g.value, g.peak, g.low, g.updates) == (9, 9, 2, 3)

    def test_untouched_gauge_reports_none_extremes(self):
        d = Gauge("x").as_dict()
        assert d["peak"] is None and d["low"] is None and d["updates"] == 0


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("x")
        for v in (1, 2, 4, 100):
            h.observe(v)
        assert h.count == 4
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(26.75)

    def test_bucketing(self):
        h = Histogram("x")
        h.observe(0)
        h.observe(3)
        h.observe(10 ** 9)  # beyond the last bound -> inf bucket
        d = h.as_dict()
        assert d["buckets"]["le_0"] == 1
        assert d["buckets"]["le_4"] == 1
        assert d["buckets"]["inf"] == 1

    def test_empty_histogram(self):
        d = Histogram("x").as_dict()
        assert d["count"] == 0 and d["min"] is None and d["max"] is None


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg and reg["a"].kind == "counter"

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]


class TestMetricsSubscriber:
    def test_derives_counters_histograms_gauges(self):
        bus = TelemetryBus()
        sub = bus.attach(MetricsSubscriber())
        bus.emit(1, "send", 0, 2)
        bus.emit(1, "send", 1, 3)
        bus.emit(4, "invocation", 0, 2, dur=7)
        bus.emit(1, "queued", 0, attrs={"value": 12})
        bus.flush()
        reg = sub.registry
        assert reg["l1.send"].value == 2
        assert reg["l4.invocation"].value == 1
        assert reg["l4.invocation.steps"].count == 1
        assert reg["l4.invocation.steps"].max == 7
        assert reg["l1.queued.level"].peak == 12

    def test_shared_registry(self):
        reg = MetricsRegistry()
        sub = MetricsSubscriber(reg)
        assert sub.registry is reg

    def test_as_dict_round_trip(self):
        bus = TelemetryBus()
        sub = bus.attach(MetricsSubscriber())
        bus.emit(2, "context_switch", 0, 1)
        bus.flush()
        d = sub.as_dict()
        assert d["l2.context_switch"]["value"] == 1
        assert not math.isnan(d["l2.context_switch"]["value"])
