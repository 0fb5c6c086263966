"""Coverage for the machine's opt-in slow send paths.

The fast path (reliable, zero-latency, unbounded FIFO) is exercised by
nearly every other test; these cases pin down the behaviours that only
appear when queue bounds, link latency or fault injection are switched on.
"""

import random

import pytest

from repro.errors import QueueOverflowError
from repro.netsim import EMPTY_MSG, FaultModel, FunctionalProgram, Machine
from repro.telemetry import TelemetryBus
from repro.topology import Line, Ring


def recorder():
    def init(node):
        return []

    def receive(node, state, sender, msg, send, neighbours):
        state.append((sender, msg))

    return FunctionalProgram(init, receive)


def fanout(count):
    """Node 0 sends ``count`` messages to neighbour on kickstart."""

    def init(node):
        return []

    def receive(node, state, sender, msg, send, neighbours):
        if msg is EMPTY_MSG and node == 0:
            for i in range(count):
                send(neighbours[0], i)
        else:
            state.append(msg)

    return FunctionalProgram(init, receive)


class TestQueueOverflow:
    def test_overflow_raise_is_default(self):
        m = Machine(Line(2), fanout(5), queue_capacity=2)
        m.inject(0, EMPTY_MSG)
        with pytest.raises(QueueOverflowError):
            m.run()


class TestLatencyPath:
    def test_int_latency_delays_delivery(self):
        m = Machine(Line(2), recorder(), latency=3)
        m.inject(0, "x")  # injected before step 0; zero-latency for EXTERNAL
        m.step()
        assert m.state_of(0) == [(-1, "x")]

        m2 = Machine(Line(2), fanout(1), latency=3)
        m2.inject(0, EMPTY_MSG)
        report = m2.run()
        assert m2.state_of(1) == [0]
        # kickstart at step 0, message matures 3 extra steps later
        assert report.steps >= 4

    def test_latency_combined_with_faults(self):
        fm = FaultModel(drop_probability=1.0, rng=random.Random(0))
        m = Machine(Line(2), fanout(3), latency=2, faults=fm)
        m.inject(0, EMPTY_MSG)
        report = m.run()
        # EXTERNAL inject is still subject to faults: everything dropped
        assert report.delivered_total == 0
        assert report.dropped_total == 1

    def test_latency_preserves_per_link_fifo(self):
        m = Machine(Line(2), fanout(4), latency=5)
        m.inject(0, EMPTY_MSG)
        m.run()
        assert m.state_of(1) == [0, 1, 2, 3]


class TestFaultSlowPathAccounting:
    def test_fault_drops_emit_telemetry_reason(self):
        events = []
        bus = TelemetryBus()
        bus.attach(events.append)
        fm = FaultModel(drop_probability=1.0, rng=random.Random(0))
        m = Machine(Ring(4), recorder(), faults=fm, telemetry=bus)
        m.inject(0, "x")
        m.run()
        drops = [e for e in events if e.name == "drop"]
        assert len(drops) == 1
        assert drops[0].attrs["reason"] == "fault"

    def test_duplicates_count_toward_delivered(self):
        fm = FaultModel(duplicate_probability=1.0, rng=random.Random(0))
        m = Machine(Line(2), fanout(2), faults=fm)
        m.inject(0, EMPTY_MSG)
        report = m.run()
        # the kickstart itself is duplicated, so the fanout fires twice
        assert m.state_of(1) == [0, 0, 1, 1, 0, 0, 1, 1]
        assert report.delivered_total == report.sent_total * 2
