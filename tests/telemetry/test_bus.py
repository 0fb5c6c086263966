"""Bus semantics: subscription, ordering, no-op mode, recorder subsumption."""

import pytest

from repro.netsim import EMPTY_MSG, Machine
from repro.netsim.trace import TraceRecorder
from repro.telemetry import EventLog, TelemetryBus, TelemetryEvent
from repro.topology import Torus


class _Forwarder:
    def init(self, ctx):
        pass

    def on_message(self, ctx, sender, payload):
        ctx.send(ctx.neighbours[0], payload)


class TestSubscription:
    def test_attach_returns_subscriber(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        assert isinstance(log, EventLog)
        assert bus.subscribers == [log]

    def test_attach_plain_callable(self):
        bus = TelemetryBus()
        seen = []
        bus.attach(seen.append)
        bus.emit(1, "send", 0, 3)
        bus.flush()
        assert len(seen) == 1 and seen[0].name == "send"

    def test_attach_rejects_non_subscriber(self):
        with pytest.raises(TypeError):
            TelemetryBus().attach(42)

    def test_detach(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        bus.detach(log)
        bus.emit(1, "send", 0)
        bus.flush()
        assert len(log) == 0

    def test_detach_absent_is_noop(self):
        TelemetryBus().detach(object())


class TestEmit:
    def test_subscribers_called_in_subscription_order(self):
        bus = TelemetryBus()
        order = []
        bus.attach(lambda ev: order.append("a"))
        bus.attach(lambda ev: order.append("b"))
        bus.emit(1, "send", 0)
        bus.flush()
        assert order == ["a", "b"]

    def test_event_fields(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        bus.emit(3, "ticket_issue", 7, 12, attrs={"dst": 4})
        bus.flush()
        (ev,) = log.events
        assert (ev.layer, ev.name, ev.step, ev.node) == (3, "ticket_issue", 7, 12)
        assert ev.attrs == {"dst": 4}
        assert not ev.is_span and not ev.is_counter

    def test_span_and_counter_classification(self):
        span = TelemetryEvent(0, 4, "invocation", dur=5)
        counter = TelemetryEvent(0, 1, "queued", attrs={"value": 3})
        assert span.is_span and not counter.is_span
        assert counter.is_counter and not span.is_counter

    def test_events_emitted_counts_without_subscribers(self):
        bus = TelemetryBus()
        bus.emit(1, "send", 0)
        assert bus.events_emitted == 1


class TestEventOrdering:
    """Per-message event chains must arrive causally ordered."""

    def test_send_precedes_deliver_for_each_message(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        m = Machine(Torus((4, 4)), _Forwarder(), telemetry=bus)
        m.inject(0, EMPTY_MSG)
        m.run(max_steps=30)
        sends = [e.step for e in log.by_name("send")]
        delivers = [e.step for e in log.by_name("deliver")]
        # one message in flight at all times: every deliver has a prior send,
        # and at most the final send is still undelivered at the step cutoff
        assert len(delivers) > 0
        assert len(sends) - len(delivers) <= 1
        # the i-th deliver happens no earlier than the i-th send
        for s, d in zip(sends, delivers):
            assert d >= s

    def test_deterministic_stream(self):
        def run():
            bus = TelemetryBus()
            log = bus.attach(EventLog())
            m = Machine(Torus((4, 4)), _Forwarder(), seed=7, telemetry=bus)
            m.inject(0, EMPTY_MSG)
            m.run(max_steps=30)
            return [e.as_dict() for e in log.events]

        assert run() == run()


class TestDisabledMode:
    def test_default_machine_has_no_bus(self):
        m = Machine(Torus((4, 4)), _Forwarder())
        assert m._telemetry is None
        m.inject(0, EMPTY_MSG)
        rep = m.run(max_steps=30)
        assert rep.delivered_total > 0

    def test_disabled_and_enabled_runs_agree_on_report(self):
        def run(bus):
            m = Machine(Torus((4, 4)), _Forwarder(), seed=3, telemetry=bus)
            m.inject(0, EMPTY_MSG)
            return m.run(max_steps=40).summary()

        assert run(None) == run(TelemetryBus())


class TestTraceRecorderSubsumption:
    """The layer-1 event stream alone reproduces the recorder's §V-C metrics."""

    def test_feed_matches_machine_recorder(self):
        topo = Torus((4, 4))
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        m = Machine(topo, _Forwarder(), telemetry=bus)
        m.inject(0, EMPTY_MSG)
        m.run(max_steps=50)
        machine_rec: TraceRecorder = m.trace
        sends, delivers, drops = (
            log.by_name(name, layer=1) for name in ("send", "deliver", "drop")
        )
        node_delivered = [0] * topo.n_nodes
        for ev in delivers:
            node_delivered[ev.node] += 1
        activity = [ev.step for ev in sends + delivers + drops]
        assert len(sends) == machine_rec.sent_total
        assert len(delivers) == machine_rec.delivered_total
        assert len(drops) == machine_rec.dropped_total
        assert node_delivered == machine_rec.node_delivered
        assert [
            ev.attrs["value"] for ev in log.by_name("queued", layer=1)
        ] == machine_rec.dense()["queued_series"]
        assert min(activity) == machine_rec.first_activity_step
        assert max(activity) == machine_rec.last_activity_step
