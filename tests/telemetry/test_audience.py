"""What a publisher builds depends on who listens, checked at publication.

Layers 2-5 build an event's step, node and ``attrs`` only when the bus has
a subscriber that keeps events (``want_events``); an aggregator alone gets
``(layer, name)`` and, for a span, its duration.  Counters, histograms,
gauges and ``events_emitted`` must not notice the difference.
"""

import pytest

from repro.engine import RunSpec, execute
from repro.mapping import Ticket
from repro.netsim.digest import canonical_digest
from repro.telemetry import EventLog, MetricsSubscriber, TelemetryBus, TelemetryEvent

UF20 = RunSpec(
    workload="sat",
    workload_params={"num_vars": 20, "num_clauses": 91, "formula_seed": 1},
    topology="torus2d:4x4",
    mapper="lbn",
    status=4,
    seed=3,
)


def observed(spec, *, with_log):
    bus = TelemetryBus()
    metrics = bus.attach(MetricsSubscriber())
    log = bus.attach(EventLog()) if with_log else None
    assert execute(spec, telemetry=bus).completed
    return metrics, log


def test_an_aggregator_alone_builds_no_event_payload(monkeypatch):
    calls = {"repr": 0, "event": 0}
    ticket_repr = Ticket.__repr__
    event_init = TelemetryEvent.__init__

    def counting_repr(self):
        calls["repr"] += 1
        return ticket_repr(self)

    def counting_init(self, *fields):
        calls["event"] += 1
        event_init(self, *fields)

    monkeypatch.setattr(Ticket, "__repr__", counting_repr)
    monkeypatch.setattr(TelemetryEvent, "__init__", counting_init)

    alone, _ = observed(UF20, with_log=False)
    assert calls == {"repr": 0, "event": 0}

    beside, log = observed(UF20, with_log=True)
    assert calls["repr"] > 0 and calls["event"] == len(log) > 0
    assert canonical_digest(alone.as_dict()) == canonical_digest(beside.as_dict())


@pytest.mark.parametrize(
    "variant", [{}, {"drop": 0.05, "duplicate": 0.02, "reliable": True}],
    ids=["serial", "lossy"],
)
def test_an_audience_attached_mid_run_sees_the_full_runs_tail(variant):
    spec = UF20.with_(checkpoint_every=4, **variant)
    attach_at = 2  # the second checkpoint boundary

    # reference: an EventLog from the start; the machine flushes the bus at
    # every step boundary, so its length at a checkpoint is the cut
    full_bus = TelemetryBus()
    full_metrics = full_bus.attach(MetricsSubscriber())
    full_log = full_bus.attach(EventLog())
    marks = []
    execute(spec, telemetry=full_bus,
            checkpoint_sink=lambda ckpt: marks.append((ckpt.step, len(full_log))))
    k, cut = marks[attach_at - 1]

    # the same run with only an aggregator, until the sink attaches a log
    bus = TelemetryBus()
    late_metrics = bus.attach(MetricsSubscriber())
    late_log = EventLog()
    steps = []

    def attach(ckpt):
        steps.append(ckpt.step)
        if len(steps) == attach_at:
            bus.attach(late_log)

    assert execute(spec, telemetry=bus, checkpoint_sink=attach).completed

    head = [e.as_dict() for e in full_log.events[:cut]]
    tail = [e.as_dict() for e in full_log.events[cut:]]
    got = [e.as_dict() for e in late_log.events]
    assert steps[attach_at - 1] == k and tail and got == tail
    # the cut falls on the step boundary: instants before it are at steps
    # <= k, instants after it at steps > k (a span carries its start step)
    assert all(e["step"] <= k for e in head)
    assert all(e["step"] > k for e in got if "dur" not in e)
    assert {e["layer"] for e in got} == {1, 2, 3, 4, 5}
    assert canonical_digest(late_metrics.as_dict()) == canonical_digest(
        full_metrics.as_dict()
    )
