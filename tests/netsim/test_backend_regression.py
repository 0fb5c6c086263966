"""Regression pins for the optimized layer-1 event loop.

The hot path maintains an incrementally-sorted active-node list and a
per-node queue-depth mirror instead of scanning inboxes; these tests pin
the observable contract those structures must preserve — ascending-id
delivery order, exact trace counters, and correct accounting on the slow
paths (link latency, faults, finite queue capacity).
"""

import random

import pytest

from repro.errors import QueueOverflowError
from repro.netsim import FaultModel, Machine, TraceRecorder
from repro.topology import FullyConnected


class Recorder:
    """Log deliveries as (step, node, payload); optionally send a plan."""

    def __init__(self, plan=None):
        # node -> list of destinations to send to on first delivery
        self.plan = plan or {}
        self.log = []

    def init(self, ctx):
        ctx.state = False

    def on_message(self, ctx, sender, payload):
        self.log.append((ctx.step, ctx.node, payload))
        if not ctx.state:
            ctx.state = True
            for dst in self.plan.get(ctx.node, ()):
                ctx.send(dst, payload)


def make_machine(n_nodes, plan=None, **kw):
    """A fully connected machine: any plan may send to any other node."""
    program = Recorder(plan)
    m = Machine(FullyConnected(n_nodes), program, **kw)
    return m, program.log


class TestDeliveryOrderPinned:
    def test_out_of_order_activations_deliver_ascending(self):
        # node 0 activates 5, 3, 1 (in that send order); the next step must
        # still deliver in ascending node-id order
        m, log = make_machine(6, plan={0: [5, 3, 1]})
        m.inject(0, "x")
        m.run()
        assert [n for _, n, _ in log] == [0, 1, 3, 5]
        assert [s for s, _, _ in log] == [0, 1, 1, 1]

    def test_mid_sweep_sends_never_jump_the_current_step(self):
        # node 1 sends to node 4 while node 4's queue is already being
        # drained this step; the new message must wait for the next step
        m, log = make_machine(6, plan={1: [4]})
        m.inject(1, "a")
        m.inject(4, "b")
        m.run()
        assert log == [(0, 1, "a"), (0, 4, "b"), (1, 4, "a")]

    def test_interleaved_rounds_stay_sorted(self):
        # waves bounce between high and low ids for several steps; order
        # within every step must stay ascending
        rng = random.Random(7)
        n = 25
        plan = {i: [rng.randrange(n)] for i in range(n)}
        m, log = make_machine(n, plan=plan)
        for node in (17, 3, 11):
            m.inject(node, "w")
        m.run()
        by_step = {}
        for step, node, _ in log:
            by_step.setdefault(step, []).append(node)
        for step, nodes in by_step.items():
            assert nodes == sorted(nodes), f"step {step} delivered {nodes}"


class TestQueueDepthMirror:
    def test_depths_track_backlog(self):
        m, _ = make_machine(4)
        for _ in range(3):
            m.inject(0, "x")
        m.inject(1, "y")
        assert m.queue_depths() == [3, 1, 0, 0]
        m.step()
        assert m.queue_depths() == [2, 0, 0, 0]
        assert m.queue_depth_of(0) == 2
        m.run()
        assert m.queue_depths() == [0, 0, 0, 0]

    def test_depths_include_fresh_sends(self):
        m, _ = make_machine(4, plan={0: [2, 2]})
        m.inject(0, "x")
        m.step()
        assert m.queue_depth_of(2) == 2
        assert m.queue_depths() == [0, 0, 2, 0]


class TestTraceCountersPinned:
    def test_counters_simple_chain(self):
        trace = TraceRecorder(4)
        m, _ = make_machine(4, plan={0: [1], 1: [2], 2: [3]}, trace=trace)
        m.inject(0, "go")
        report = m.run()
        assert report.sent_total == 4  # inject + 3 forwards
        assert report.delivered_total == 4
        assert report.dropped_total == 0
        assert list(report.delivered_series) == [1, 1, 1, 1]
        # each forward is queued at the end of the step that sent it
        assert list(report.queued_series) == [1, 1, 1, 0]
        assert list(report.node_delivered) == [1, 1, 1, 1]

    def test_counters_with_latency_and_in_flight(self):
        trace = TraceRecorder(4)
        m, log = make_machine(
            4, plan={0: [1], 1: [2]}, trace=trace, latency=2
        )
        m.inject(0, "go")
        assert not m.is_quiescent
        report = m.run()
        # sends arrive at send_step + 1 + latency
        assert [(s, n) for s, n, _ in log] == [(0, 0), (3, 1), (6, 2)]
        assert report.sent_total == 3
        assert report.delivered_total == 3
        assert report.quiescent
        # queued_series counts only landed messages, not in-flight ones
        assert sum(report.queued_series) == 0

    def test_counters_with_duplicating_faults(self):
        trace = TraceRecorder(4)
        faults = FaultModel(duplicate_probability=1.0, rng=random.Random(1))
        m, log = make_machine(4, plan={0: [1]}, trace=trace, faults=faults)
        m.inject(0, "go")
        report = m.run()
        # both the injection and the forward are duplicated: node 0 gets two
        # copies (only the first triggers the plan), node 1 gets two copies
        assert report.sent_total == 2
        assert [n for _, n, _ in log] == [0, 0, 1, 1]
        assert report.delivered_total == 4

    def test_counters_with_dropping_faults(self):
        trace = TraceRecorder(4)
        faults = FaultModel(drop_probability=1.0, rng=random.Random(1))
        m, log = make_machine(4, plan={0: [1]}, trace=trace, faults=faults)
        m.inject(0, "go")
        report = m.run()
        # faults apply to external injections too: the kickstart is dropped
        assert report.sent_total == 1
        assert report.dropped_total == 1
        assert log == []
        assert report.delivered_total == 0
        assert report.quiescent


class TestFiniteCapacity:
    def test_overflow_raise_policy(self):
        # nodes 0 and 1 both send to node 5 in the same step; capacity 1
        # admits only the first (lowest-id sender runs first)
        m, _ = make_machine(6, plan={0: [5], 1: [5]}, queue_capacity=1)
        m.inject(0, "a")
        m.inject(1, "b")
        with pytest.raises(QueueOverflowError):
            m.run()

    def test_bounded_fifo_preserves_order_and_depths(self):
        m, log = make_machine(3, plan={0: [1], 2: [1]}, queue_capacity=4)
        m.inject(0, "a")
        m.inject(2, "b")
        m.run()
        # node 1 receives from 0 then from 2 (senders ran in ascending order)
        arrivals = [(n, p) for _, n, p in log if n == 1]
        assert arrivals == [(1, "a"), (1, "b")]
