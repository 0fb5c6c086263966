"""Tests for the layer-1 machine event loop (paper §IV-A semantics)."""

import pytest

from repro.errors import AdjacencyError, SimulationError
from repro.netsim import EMPTY_MSG, FunctionalProgram, Machine
from repro.topology import FullyConnected, Line, Ring, Torus


def make_echo_program(log):
    """Program that logs deliveries as (node, sender, payload, step)."""

    class Echo:
        def init(self, ctx):
            ctx.state = {"ctx": ctx}

        def on_message(self, ctx, sender, payload):
            log.append((ctx.node, sender, payload, ctx.step))

    return Echo()


class CountAndForward:
    """Each node forwards a decremented counter to its first neighbour."""

    def init(self, ctx):
        ctx.state = 0

    def on_message(self, ctx, sender, payload):
        ctx.state += 1
        if payload > 0:
            ctx.send(ctx.neighbours[0], payload - 1)


class TestDeliverySemantics:
    def test_injected_message_delivered_at_step_zero(self):
        log = []
        m = Machine(Ring(4), make_echo_program(log))
        m.inject(2, "hello")
        m.run()
        assert log == [(2, -1, "hello", 0)]

    def test_sends_not_delivered_same_step(self):
        steps = []

        class P:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                steps.append((ctx.node, ctx.step))
                if payload:
                    ctx.send(ctx.neighbours[0], False)

        m = Machine(Ring(4), P())
        m.inject(0, True)
        m.run()
        # the forwarded message arrives exactly one step later
        assert steps == [(0, 0), (3, 1)]

    def test_one_message_per_node_per_step(self):
        log = []
        m = Machine(Ring(4), make_echo_program(log))
        m.inject(1, "a")
        m.inject(1, "b")
        m.run()
        assert [(n, p, s) for n, _, p, s in log] == [(1, "a", 0), (1, "b", 1)]

    def test_all_nonempty_queues_pop_same_step(self):
        log = []
        m = Machine(Ring(5), make_echo_program(log))
        for node in (0, 2, 4):
            m.inject(node, "x")
        m.run()
        assert sorted((n, s) for n, _, _, s in log) == [(0, 0), (2, 0), (4, 0)]

    def test_node_order_within_step_is_ascending(self):
        log = []
        m = Machine(Ring(5), make_echo_program(log))
        for node in (4, 0, 2):
            m.inject(node, "x")
        m.step()
        assert [n for n, _, _, _ in log] == [0, 2, 4]

    def test_fifo_order_within_node(self):
        log = []
        m = Machine(Ring(3), make_echo_program(log))
        for payload in ("a", "b", "c"):
            m.inject(0, payload)
        m.run()
        assert [p for _, _, p, _ in log] == ["a", "b", "c"]

    def test_chain_propagation_takes_one_step_per_hop(self):
        m = Machine(Line(6), CountAndForward())
        m.inject(5, 5)  # walks 5 -> 4 -> 3 -> 2 -> 1 -> 0
        report = m.run()
        assert report.steps == 6
        for n in range(6):
            assert m.state_of(n) == 1


class TestAdjacencyEnforcement:
    def test_send_to_non_neighbour_raises(self):
        class Bad:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                ctx.send(2, "too far")  # node 0's neighbours on Ring(5): 4, 1

        m = Machine(Ring(5), Bad())
        m.inject(0, "go")
        with pytest.raises(AdjacencyError):
            m.run()

    def test_send_to_invalid_node_raises(self):
        class Bad:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                ctx.send(99, "nowhere")

        m = Machine(Ring(5), Bad())
        m.inject(0, "go")
        with pytest.raises(SimulationError):
            m.run()

    def test_fully_connected_allows_any_pair(self):
        class Spray:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                if payload:
                    for n in range(ctx.n_nodes):
                        if n != ctx.node:
                            ctx.send(n, False)

        m = Machine(FullyConnected(6), Spray())
        m.inject(0, True)
        report = m.run()
        assert report.delivered_total == 6

    def test_fully_connected_self_send_raises(self):
        class SelfSend:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                ctx.send(ctx.node, "me")

        m = Machine(FullyConnected(4), SelfSend())
        m.inject(1, "go")
        with pytest.raises(AdjacencyError):
            m.run()


class TestRunControl:
    def test_quiescence_detection(self):
        log = []
        m = Machine(Ring(4), make_echo_program(log))
        assert m.is_quiescent
        m.inject(0, "x")
        assert not m.is_quiescent
        m.run()
        assert m.is_quiescent

    def test_run_respects_max_steps(self):
        class Pingpong:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                ctx.send(ctx.neighbours[0], payload)

        m = Machine(Ring(4), Pingpong())
        m.inject(0, "forever")
        report = m.run(max_steps=10)
        assert report.steps == 10
        assert not report.quiescent

    def test_negative_max_steps_rejected(self):
        m = Machine(Ring(3), CountAndForward())
        with pytest.raises(SimulationError):
            m.run(max_steps=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_steps": 2.5},
            {"max_steps": True},
            {"checkpoint_every": True},
            {"checkpoint_every": 2.5},
        ],
        ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()),
    )
    def test_non_int_step_counts_rejected(self, kwargs):
        # the RunSpec max_steps/checkpoint_every rules: 2.5 ran 3 steps,
        # True ran 1, and checkpoint_every=True checkpointed every step
        m = Machine(Ring(3), CountAndForward())
        m.inject(0, 0)
        with pytest.raises(SimulationError, match=next(iter(kwargs))):
            m.run(checkpoint_sink=lambda machine: None, **kwargs)
        assert m.current_step == -1

    def test_halt_stops_the_loop(self):
        class HaltAfter:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                if payload == 0:
                    ctx.machine.halt()
                else:
                    ctx.send(ctx.neighbours[0], payload - 1)

        m = Machine(Ring(10), HaltAfter())
        m.inject(0, 3)
        report = m.run()
        assert report.steps == 4

    def test_empty_run_is_quiescent_at_zero_steps(self):
        m = Machine(Ring(4), CountAndForward())
        report = m.run()
        assert report.steps == 0
        assert report.quiescent

    def test_inject_invalid_node(self):
        m = Machine(Ring(4), CountAndForward())
        with pytest.raises(Exception):
            m.inject(7, "x")

    def test_state_of_returns_program_state(self):
        m = Machine(Ring(4), CountAndForward())
        m.inject(0, 0)
        m.run()
        assert m.state_of(0) == 1
        assert m.state_of(1) == 0

    def test_resume_after_max_steps(self):
        m = Machine(Line(8), CountAndForward())
        m.inject(7, 7)
        m.run(max_steps=3)
        report = m.run(max_steps=100)
        assert report.quiescent
        assert sum(m.state_of(n) for n in range(8)) == 8


class TestLatency:
    def test_zero_latency_next_step(self):
        log = []
        m = Machine(Ring(4), make_echo_program(log), latency=0)
        m.inject(0, "x")
        m.run()
        assert log[0][3] == 0

    def test_constant_latency_delays_delivery(self):
        steps = []

        class P:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                steps.append((ctx.node, ctx.step))
                if payload:
                    ctx.send(ctx.neighbours[0], False)

        m = Machine(Ring(4), P(), latency=3)
        m.inject(0, True)
        m.run()
        # hop sent at step 0 arrives at step 0 + 1 + 3
        assert steps == [(0, 0), (3, 4)]

    def test_negative_latency_rejected(self):
        with pytest.raises(SimulationError):
            Machine(Ring(4), CountAndForward(), latency=-1)

    def test_quiescence_waits_for_in_flight(self):
        m = Machine(Ring(4), CountAndForward(), latency=5)
        m.inject(0, 1)
        m.step()  # deliver injection; the forwarded message is now in flight
        assert not m.is_quiescent
        report = m.run()
        assert report.quiescent


class TestTraceIntegration:
    def test_trace_size_mismatch_rejected(self):
        from repro.netsim import TraceRecorder

        with pytest.raises(SimulationError):
            Machine(Ring(4), CountAndForward(), trace=TraceRecorder(5))

    def test_sent_and_delivered_counts(self):
        m = Machine(Line(5), CountAndForward())
        m.inject(4, 4)
        report = m.run()
        assert report.sent_total == 5  # inject + 4 forwards
        assert report.delivered_total == 5

    def test_computation_time_definition(self):
        m = Machine(Line(5), CountAndForward())
        m.inject(4, 4)
        report = m.run()
        # inject at step -1 (pre-clock), last send at step 3
        assert report.computation_time == report.last_activity_step - report.first_activity_step

    def test_queue_depth_recording(self):
        from repro.netsim import TraceRecorder

        trace = TraceRecorder(5, record_queue_depths=True)
        m = Machine(Line(5), CountAndForward(), trace=trace)
        m.inject(4, 4)
        report = m.run()
        assert report.queue_depths is not None
        assert report.queue_depths.shape == (report.steps, 5)
