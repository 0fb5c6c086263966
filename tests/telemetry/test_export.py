"""Exporter tests: golden Chrome-trace output and metrics dumps."""

import csv
import json

from repro.telemetry import (
    ChromeTraceExporter,
    MetricsSubscriber,
    TelemetryBus,
    write_metrics,
    write_metrics_csv,
    write_metrics_json,
)


def _tiny_bus():
    """A fixed four-event stream covering every phase mapping."""
    bus = TelemetryBus()
    exporter = bus.attach(ChromeTraceExporter())
    bus.emit(1, "send", 0, 2, attrs={"dst": 3, "size": 1})
    bus.emit(1, "queued", 0, attrs={"value": 1, "delivered": 0})
    bus.emit(4, "invocation", 1, 3, dur=4, attrs={"inv": 0})
    bus.emit(5, "dpll.branch", -1, 2, attrs={"var": 7})
    bus.flush()
    return exporter


#: the exact trace the four-event stream must serialise to (golden)
GOLDEN = {
    "traceEvents": [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "layer 1 - netsim"}},
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_sort_index",
         "args": {"sort_index": 1}},
        {"ph": "M", "pid": 4, "tid": 0, "name": "process_name",
         "args": {"name": "layer 4 - recursion"}},
        {"ph": "M", "pid": 4, "tid": 0, "name": "process_sort_index",
         "args": {"sort_index": 4}},
        {"ph": "M", "pid": 5, "tid": 0, "name": "process_name",
         "args": {"name": "layer 5 - app"}},
        {"ph": "M", "pid": 5, "tid": 0, "name": "process_sort_index",
         "args": {"sort_index": 5}},
        {"name": "send", "pid": 1, "tid": 2, "ts": 0,
         "cat": "layer 1 - netsim", "ph": "i", "s": "t",
         "args": {"dst": 3, "size": 1}},
        {"name": "queued", "pid": 1, "tid": 0, "ts": 0,
         "cat": "layer 1 - netsim", "ph": "C",
         "args": {"value": 1, "delivered": 0}},
        {"name": "invocation", "pid": 4, "tid": 3, "ts": 1,
         "cat": "layer 4 - recursion", "ph": "X", "dur": 4,
         "args": {"inv": 0}},
        {"name": "dpll.branch", "pid": 5, "tid": 2, "ts": 0,
         "cat": "layer 5 - app", "ph": "i", "s": "t",
         "args": {"var": 7}},
    ],
    "displayTimeUnit": "ms",
    "otherData": {
        "clock": "1 simulation step = 1us",
        "generator": "repro.telemetry",
    },
}


class TestChromeTraceExporter:
    def test_golden_trace(self):
        assert _tiny_bus().to_chrome_trace() == GOLDEN

    def test_write_round_trips_through_json(self, tmp_path):
        path = _tiny_bus().write(tmp_path / "trace.json")
        assert json.loads(path.read_text()) == GOLDEN

    def test_len_and_layers(self):
        exporter = _tiny_bus()
        assert len(exporter) == 4
        assert exporter.layers() == [1, 4, 5]

    def test_negative_step_clamped_to_zero(self):
        bus = TelemetryBus()
        exporter = bus.attach(ChromeTraceExporter())
        bus.emit(1, "send", -1, -1)
        bus.flush()
        (entry,) = [e for e in exporter.to_chrome_trace()["traceEvents"]
                    if e["ph"] != "M"]
        assert entry["ts"] == 0 and entry["tid"] == 0

    def test_non_json_attrs_stringified(self):
        bus = TelemetryBus()
        exporter = bus.attach(ChromeTraceExporter())
        bus.emit(3, "ticket_issue", 0, 1, attrs={"ticket": object()})
        bus.flush()
        trace = exporter.to_chrome_trace()
        json.dumps(trace)  # must not raise
        (entry,) = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert isinstance(entry["args"]["ticket"], str)


def _metrics_registry():
    bus = TelemetryBus()
    sub = bus.attach(MetricsSubscriber())
    bus.emit(1, "send", 0, 2)
    bus.emit(1, "queued", 0, attrs={"value": 5})
    bus.emit(4, "invocation", 0, 1, dur=3)
    bus.flush()
    return sub.registry


class TestMetricsDumps:
    def test_json_dump(self, tmp_path):
        path = write_metrics_json(_metrics_registry(), tmp_path / "m.json")
        data = json.loads(path.read_text())
        assert data["l1.send"] == {"kind": "counter", "value": 1}
        assert data["l1.queued.level"]["peak"] == 5
        assert data["l4.invocation.steps"]["count"] == 1

    def test_csv_dump(self, tmp_path):
        path = write_metrics_csv(_metrics_registry(), tmp_path / "m.csv")
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["name", "kind", "field", "value"]
        cells = {(r[0], r[2]): r[3] for r in rows[1:]}
        assert cells[("l1.send", "value")] == "1"
        # nested dicts (histogram buckets) are flattened to field.sub
        assert ("l4.invocation.steps", "buckets.le_4") in cells

    def test_suffix_dispatch(self, tmp_path):
        reg = _metrics_registry()
        assert write_metrics(reg, tmp_path / "a.csv").suffix == ".csv"
        json.loads(write_metrics(reg, tmp_path / "a.json").read_text())
