"""The buffered publishing path: coalesced deltas and the event ring."""

import pytest

from repro.netsim import EMPTY_MSG, Machine
from repro.telemetry import EventLog, MetricsSubscriber, TelemetryBus
from repro.telemetry import bus as bus_module
from repro.topology import Torus


class _Forwarder:
    def init(self, ctx):
        ctx.state = 0

    def on_message(self, ctx, sender, payload):
        ctx.state += 1
        ctx.send(ctx.neighbours[ctx.state & 3], payload)


class _DeltaSpy:
    """Aggregating subscriber that snapshots every batch it is handed.

    No ``on_event``: a pure aggregator, so the bus keeps no events for it.
    """

    def __init__(self):
        self.counter_batches = []
        self.observation_batches = []
        self.gauge_batches = []

    def on_counters(self, deltas):
        self.counter_batches.append(dict(deltas))

    def on_observations(self, deltas):
        self.observation_batches.append(dict(deltas))

    def on_gauges(self, deltas):
        self.gauge_batches.append({key: tuple(d) for key, d in deltas.items()})


class TestCoalescing:
    def test_counts_held_until_flush(self):
        bus = TelemetryBus()
        spy = bus.attach(_DeltaSpy())
        bus.count(1, "send")
        bus.count(1, "send", 3)
        bus.count(2, "hop")
        assert spy.counter_batches == []  # nothing delivered yet
        bus.flush()
        assert spy.counter_batches == [{(1, "send"): 4, (2, "hop"): 1}]
        bus.flush()  # empty flush delivers nothing
        assert len(spy.counter_batches) == 1

    def test_observations_coalesce_by_value(self):
        bus = TelemetryBus()
        spy = bus.attach(_DeltaSpy())
        bus.observe(1, "link_retries", 0, 5)
        bus.observe(1, "link_retries", 0)
        bus.observe(1, "link_retries", 2)
        bus.flush()
        assert spy.observation_batches == [
            {(1, "link_retries", 0): 6, (1, "link_retries", 2): 1}
        ]

    def test_gauge_samples_coalesce_to_last_peak_low_n(self):
        bus = TelemetryBus()
        spy = bus.attach(_DeltaSpy())
        for value in (3, 9, 1, 4):
            bus.emit(2, "run_queue", 0, 5, attrs={"value": value})
        bus.emit(1, "queued", 0, attrs={"value": 7, "delivered": 2})
        bus.emit(3, "ticket_issue", 0, 5, attrs={"dst": 4})  # no sample
        assert spy.gauge_batches == []
        bus.flush()
        assert spy.gauge_batches == [
            {(2, "run_queue"): (4, 9, 1, 4), (1, "queued"): (7, 7, 7, 1)}
        ]
        bus.emit(2, "run_queue", 1, 5, attrs={"value": 2})
        bus.flush()
        bus.flush()  # empty flush delivers nothing
        assert spy.gauge_batches[1:] == [{(2, "run_queue"): (2, 2, 2, 1)}]

    def test_emit_is_counted_or_observed_like_the_batch_calls(self):
        bus = TelemetryBus()
        spy = bus.attach(_DeltaSpy())
        bus.emit(3, "ticket_issue", 0, 5)
        bus.count(3, "ticket_issue", 2)
        bus.emit(4, "invocation", 0, 5, dur=6)
        bus.observe(4, "invocation", 6)
        bus.flush()
        assert spy.counter_batches == [{(3, "ticket_issue"): 3}]
        assert spy.observation_batches == [{(4, "invocation", 6): 2}]

    def test_metrics_gauge_equals_per_sample_updates(self):
        bus = TelemetryBus()
        metrics = bus.attach(MetricsSubscriber())
        for step, batch in enumerate([(5, 2), (8,), (3, 6)]):
            for value in batch:
                bus.emit(2, "run_queue", step, attrs={"value": value})
            bus.flush()
        assert metrics.as_dict()["l2.run_queue.level"] == {
            "kind": "gauge", "value": 6, "peak": 8, "low": 2, "updates": 5,
        }
        assert metrics.as_dict()["l2.run_queue"]["value"] == 5

    def test_machine_flushes_at_every_step_boundary(self):
        bus = TelemetryBus()
        spy = bus.attach(_DeltaSpy())
        m = Machine(Torus((4, 4)), _Forwarder(), telemetry=bus)
        for n in range(16):
            m.inject(n, EMPTY_MSG)
        assert spy.counter_batches == []  # injects coalesce, nothing flushed
        m.step()  # all 16 kickstarts delivered, 16 forwards sent
        assert len(spy.counter_batches) == 1
        assert spy.counter_batches[-1][(1, "deliver")] == 16
        # the first boundary also flushes the 16 pre-run inject sends
        assert spy.counter_batches[-1][(1, "send")] == 32
        m.step()
        assert spy.counter_batches[-1][(1, "send")] == 16

    def test_counter_totals_match_trace_exactly(self):
        bus = TelemetryBus()
        metrics = bus.attach(MetricsSubscriber())
        m = Machine(Torus((4, 4)), _Forwarder(), telemetry=bus)
        for n in range(16):
            m.inject(n, EMPTY_MSG)
        m.run(max_steps=50)
        rep = m.report()
        dump = metrics.registry.as_dict()
        assert dump["l1.send"]["value"] == rep.sent_total
        assert dump["l1.deliver"]["value"] == rep.delivered_total


class TestRing:
    def test_wraparound_loses_nothing(self, monkeypatch):
        # a tiny ring flushing many times must still deliver every record
        monkeypatch.setattr(bus_module, "RING_SIZE", 4)
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        for i in range(10):
            bus.record(step=i, layer=1, name="send", node=i)
        bus.flush()
        events = log.by_name("send", layer=1)
        assert [e.node for e in events] == list(range(10))
        assert bus.events_emitted == 10

    def test_emit_and_record_share_one_ring_in_publication_order(self):
        # one ring: the stream event subscribers see is publication order
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        bus.record(step=0, layer=1, name="send", node=3)
        bus.emit(1, "drop", step=0, node=4)
        bus.record(step=0, layer=1, name="send", node=5)
        assert log.events == []  # nothing reaches a subscriber before flush
        bus.flush()
        assert [(e.name, e.node) for e in log.events] == [
            ("send", 3), ("drop", 4), ("send", 5),
        ]
        assert bus.events_emitted == 3

    def test_full_ring_flushes_emits_too(self, monkeypatch):
        monkeypatch.setattr(bus_module, "RING_SIZE", 4)
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        for i in range(10):
            bus.emit(3, "ticket_issue", i, i)
        assert len(log) == 8  # two full rings went out, two events staged
        bus.flush()
        assert [e.node for e in log.events] == list(range(10))

    def test_ring_skipped_for_aggregating_audience(self):
        # with no event-retaining subscriber the tuples still count as
        # emitted but no event objects reach the aggregator
        bus = TelemetryBus()
        bus.attach(_DeltaSpy())
        assert not bus.want_events
        bus.record(step=0, layer=1, name="send", node=1)
        bus.flush()
        assert bus.events_emitted == 1

    def test_emit_to_aggregators_only_builds_no_event(self, monkeypatch):
        built = []

        class _CountingEvent(bus_module.TelemetryEvent):
            def __init__(self, *fields):
                built.append(fields)
                super().__init__(*fields)

        monkeypatch.setattr(bus_module, "TelemetryEvent", _CountingEvent)
        bus = TelemetryBus()
        metrics = bus.attach(MetricsSubscriber())
        bus.emit(3, "ticket_issue", 0, 5, attrs={"dst": 4})
        bus.emit(4, "invocation", 0, 5, dur=6)
        assert not bus.want_events
        bus.flush()
        assert built == []
        assert bus.events_emitted == 2
        assert metrics.as_dict()["l3.ticket_issue"]["value"] == 1
        # the same publications with an audience that keeps events
        log = bus.attach(EventLog())
        bus.emit(3, "ticket_issue", 1, 5)
        bus.flush()
        assert len(built) == len(log) == 1


class TestSnapshot:
    def test_round_trip_carries_the_event_count(self):
        bus = TelemetryBus()
        bus.record(step=0, layer=1, name="send", node=1)
        fresh = TelemetryBus()
        fresh.restore(bus.snapshot())
        assert fresh.events_emitted == 1

    def test_version_1_state_refused(self):
        # version 1 carried the phase of the removed record sampling
        from repro.errors import CheckpointError
        from repro.state import LayerState

        old = LayerState("telemetry", 1, {"events_emitted": 3, "sample_skip": 0})
        with pytest.raises(CheckpointError, match="version 1 not supported"):
            TelemetryBus().restore(old)
