"""Unit tests for the layer-1.5 reliable-delivery protocol."""

import random

import pytest

from repro.errors import ReliabilityError
from repro.netsim import EMPTY_MSG, FaultModel, FunctionalProgram, Machine
from repro.reliability import AckFrame, DataFrame, ReliabilityConfig, ReliableDelivery
from repro.telemetry import TelemetryBus
from repro.telemetry.metrics import MetricsSubscriber
from repro.topology import Line, Ring, Torus


class ScriptedFaults:
    """Fault model delivering a scripted copies sequence, then reliable."""

    is_reliable = False

    def __init__(self, copies):
        self._copies = list(copies)

    def copies_to_deliver(self):
        return self._copies.pop(0) if self._copies else 1


def recorder_program():
    """Program recording every delivery as ``(sender, payload)``."""

    def init(node):
        return []

    def receive(node, state, sender, msg, send, neighbours):
        state.append((sender, msg))

    return FunctionalProgram(init, receive)


def burst_program(count):
    """Node 0 sends ``count`` numbered messages to its first neighbour."""

    def init(node):
        return []

    def receive(node, state, sender, msg, send, neighbours):
        if msg is EMPTY_MSG and node == 0:
            for i in range(count):
                send(neighbours[0], i)
        else:
            state.append(msg)

    return FunctionalProgram(init, receive)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ReliabilityConfig()
        assert cfg.timeout >= 1 and cfg.retry_limit > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0},
            {"backoff": 0.5},
            {"max_timeout": 1, "timeout": 4},
            {"retry_limit": -1},
            {"on_exhausted": "explode"},
            # a float max_timeout left a lossy run spinning to max_steps, a
            # float timeout died with a TypeError, and True was taken as 1
            {"timeout": 2.5},
            {"timeout": True},
            {"max_timeout": 10.5},
            {"max_timeout": "64"},
            {"retry_limit": True},
            {"retry_limit": 3.0},
            {"backoff": True},
            {"backoff": "2"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ReliabilityError, match=next(iter(kwargs))):
            ReliabilityConfig(**kwargs)


class TestReliableNoFaults:
    """With perfect links the protocol must be an invisible pass-through."""

    def test_same_deliveries_as_plain_machine(self):
        plain = Machine(Ring(5), burst_program(4))
        plain.inject(0, EMPTY_MSG)
        plain.run()
        rel = Machine(Ring(5), burst_program(4), reliability=True)
        rel.inject(0, EMPTY_MSG)
        report = rel.run()
        assert report.quiescent
        assert rel.state_of(rel.topology.neighbours(0)[0]) == plain.state_of(
            plain.topology.neighbours(0)[0]
        )
        stats = rel.reliability.stats
        assert stats.data_sent == stats.delivered == 5  # kickstart + 4
        assert stats.retransmits == 0
        assert stats.dups_suppressed == 0
        # acks are cumulative and coalesced — one per receiving link per
        # step (kickstart ack + one covering the whole 4-message burst),
        # not one per data frame
        assert stats.acks_sent == stats.acks_received == 2
        assert stats.acks_piggybacked == 0  # no reverse data traffic here

    def test_acks_coalesce_per_link_per_step(self):
        # all 4 burst frames arrive in the same step -> a single cumulative
        # ack retires every one of them
        m = Machine(Ring(5), burst_program(4), reliability=True)
        m.inject(0, EMPTY_MSG)
        m.run()
        stats = m.reliability.stats
        assert stats.delivered == 5
        assert stats.acks_sent == 2  # one for the kickstart, one for the burst

    def test_reverse_traffic_piggybacks_acks(self):
        # node 0 and node 1 bounce a counter back and forth: every data
        # frame (after the kickstart exchange) carries the ack for the
        # frame it answers, so standalone ack frames stay rare
        def init(node):
            return []

        def receive(node, state, sender, msg, send, neighbours):
            state.append(msg)
            if isinstance(msg, int) and msg < 20:
                send(neighbours[0], msg + 1)

        m = Machine(Line(2), FunctionalProgram(init, receive), reliability=True)
        m.inject(0, 0)
        report = m.run()
        assert report.quiescent
        stats = m.reliability.stats
        assert stats.acks_piggybacked > 0
        # every frame still gets acknowledged exactly once overall
        assert stats.data_sent == stats.delivered
        assert m.state_of(0)[-1] == 20 or m.state_of(1)[-1] == 20

    def test_fast_path_disabled_only_when_on(self):
        assert Machine(Ring(4), recorder_program())._fast_send
        assert not Machine(Ring(4), recorder_program(), reliability=True)._fast_send
        assert Machine(Ring(4), recorder_program()).reliability is None

    def test_config_instance_accepted(self):
        cfg = ReliabilityConfig(timeout=2, retry_limit=3)
        m = Machine(Ring(4), recorder_program(), reliability=cfg)
        assert m.reliability.config is cfg


class TestDropRecovery:
    def test_single_drop_is_retransmitted(self):
        # transmit order: inject frame, msg 0's data frame (handler sends
        # transmit mid-step), then the end-of-step ack of the inject —
        # which is dropped, so the inject frame is retransmitted and
        # deduplicated at the receiver
        m = Machine(
            Line(2),
            burst_program(1),
            faults=ScriptedFaults([1, 1, 0]),
            reliability=ReliabilityConfig(timeout=2),
        )
        m.inject(0, EMPTY_MSG)
        report = m.run()
        assert report.quiescent
        assert m.state_of(1) == [0]
        stats = m.reliability.stats
        assert stats.retransmits == 1
        assert stats.frames_lost == 1
        assert stats.delivered == 2

    def test_fifo_order_survives_mid_burst_drop(self):
        # script: inject ok, msg 0 ok, then msg 1 dropped while msgs 2..3
        # get through — the out-of-order successors must be buffered by
        # the receiver and released in order once msg 1 is retransmitted
        m = Machine(
            Line(2),
            burst_program(4),
            faults=ScriptedFaults([1, 1, 0, 1, 1]),
            reliability=ReliabilityConfig(timeout=2),
        )
        m.inject(0, EMPTY_MSG)
        report = m.run()
        assert report.quiescent
        assert m.state_of(1) == [0, 1, 2, 3]
        assert m.reliability.stats.retransmits >= 1

    def test_trigger_injection_is_protected_too(self):
        # the kickstart itself is dropped once, then recovered
        m = Machine(
            Line(2),
            burst_program(1),
            faults=ScriptedFaults([0]),
            reliability=ReliabilityConfig(timeout=2),
        )
        m.inject(0, EMPTY_MSG)
        report = m.run()
        assert report.quiescent
        assert m.state_of(1) == [0]


class TestDuplicateSuppression:
    def test_duplicated_data_frame_delivered_once(self):
        m = Machine(
            Line(2),
            burst_program(2),
            faults=ScriptedFaults([1, 1, 2, 1]),  # msg 1's frame duplicated
            reliability=True,
        )
        m.inject(0, EMPTY_MSG)
        m.run()
        assert m.state_of(1) == [0, 1]
        assert m.reliability.stats.dups_suppressed == 1

    def test_lost_ack_recovered_without_redelivery(self):
        # inject, msg 0's data frame and the inject's ack all ok; msg 0's
        # end-of-step ack dropped -> retransmit -> dedup -> re-ack
        m = Machine(
            Line(2),
            burst_program(1),
            faults=ScriptedFaults([1, 1, 1, 0]),
            reliability=ReliabilityConfig(timeout=2),
        )
        m.inject(0, EMPTY_MSG)
        report = m.run()
        assert report.quiescent
        assert m.state_of(1) == [0]  # exactly once despite the retransmission
        stats = m.reliability.stats
        assert stats.retransmits >= 1
        assert stats.dups_suppressed >= 1


class TestRetryCap:
    def test_exhaustion_raises_by_default(self):
        dead = FaultModel(drop_probability=1.0, rng=random.Random(0))
        m = Machine(
            Line(2),
            burst_program(1),
            faults=dead,
            reliability=ReliabilityConfig(timeout=1, retry_limit=2, max_timeout=2),
        )
        m.inject(0, EMPTY_MSG)
        with pytest.raises(ReliabilityError, match="gave up"):
            m.run(max_steps=100)

    def test_exhaustion_drop_mode_records_drop_and_quiesces(self):
        dead = FaultModel(drop_probability=1.0, rng=random.Random(0))
        m = Machine(
            Line(2),
            recorder_program(),
            faults=dead,
            reliability=ReliabilityConfig(
                timeout=1, retry_limit=2, max_timeout=2, on_exhausted="drop"
            ),
        )
        m.inject(0, "lost")
        report = m.run(max_steps=200)
        assert report.quiescent
        assert m.state_of(0) == []
        assert m.reliability.stats.exhausted == 1
        assert report.dropped_total == 1  # end-to-end drop recorded in the trace


class TestTimersAndBackoff:
    def test_retransmit_steps_follow_exponential_backoff(self):
        events = []
        bus = TelemetryBus()
        bus.attach(events.append)
        dead = FaultModel(drop_probability=1.0, rng=random.Random(0))
        m = Machine(
            Line(2),
            recorder_program(),
            faults=dead,
            reliability=ReliabilityConfig(
                timeout=2, backoff=2.0, max_timeout=64, retry_limit=3,
                on_exhausted="drop",
            ),
            telemetry=bus,
        )
        m.inject(0, "x")  # sent at step -1, first due at -1 + 1 + 2 = 2
        m.run(max_steps=100)
        steps = [e.step for e in events if e.name == "retransmit"]
        # waits after each retry: timeout*backoff**n = 4, 8, ... from the
        # step the retry happened at
        assert steps == [2, 6, 14]

    def test_pending_blocks_quiescence_until_acked(self):
        m = Machine(
            Line(2),
            recorder_program(),
            faults=ScriptedFaults([1, 0]),  # data ok, ack dropped
            reliability=ReliabilityConfig(timeout=2),
        )
        m.inject(0, "x")
        m.step()  # frame lands, payload delivered, ack lost
        assert m.state_of(0) == [(-1, "x")] or m.state_of(0) == []
        assert not m.is_quiescent  # sender still holds the unacked frame
        m.run(max_steps=50)
        assert m.is_quiescent


class TestLatencyInterplay:
    def test_reliable_delivery_over_latent_links(self):
        m = Machine(
            Line(3),
            burst_program(3),
            latency=2,
            faults=ScriptedFaults([1, 0, 1, 1]),
            reliability=ReliabilityConfig(timeout=8),
        )
        m.inject(0, EMPTY_MSG)
        report = m.run()
        assert report.quiescent
        assert m.state_of(1) == [0, 1, 2]


class TestTelemetryAndDeterminism:
    def _run(self, seed=3):
        bus = TelemetryBus()
        log = []
        bus.attach(log.append)
        metrics = bus.attach(MetricsSubscriber())
        fm = FaultModel(0.3, 0.1, rng=random.Random(seed))
        m = Machine(
            Torus((3, 3)),
            burst_program(5),
            faults=fm,
            reliability=ReliabilityConfig(timeout=3),
            telemetry=bus,
        )
        m.inject(0, EMPTY_MSG)
        m.run(max_steps=2000)
        return m, log, metrics

    def test_events_and_metrics_dump(self):
        m, log, metrics = self._run()
        names = {e.name for e in log}
        assert {"retransmit", "ack", "link_retries"} <= names
        dump = metrics.as_dict()
        assert dump["l1.retransmit"]["value"] == m.reliability.stats.retransmits
        hist = dump["l1.link_retries.steps"]
        assert hist["kind"] == "histogram"
        assert hist["count"] == m.reliability.stats.data_sent
        # total retransmissions across messages == histogram mass
        assert hist["sum"] == m.reliability.stats.retransmits

    def test_identical_runs_produce_identical_event_streams(self):
        _, log_a, _ = self._run()
        _, log_b, _ = self._run()
        assert [e.as_dict() for e in log_a] == [e.as_dict() for e in log_b]

    def test_link_state_snapshot(self):
        m = Machine(
            Line(2),
            recorder_program(),
            faults=ScriptedFaults([0]),
            reliability=ReliabilityConfig(timeout=50),
        )
        m.inject(0, "x")
        m.step()
        state = m.link_state_snapshot() if hasattr(m, "link_state_snapshot") else (
            m.reliability.link_state()
        )
        assert state == {"-1->0": {"unacked": 1}}


class TestFrames:
    def test_repr_smoke(self):
        from repro.netsim.message import Envelope

        frame = DataFrame(3, Envelope(0, 1, "p", 0, 7))
        assert frame.seq == 3
        ack = AckFrame(9)
        assert ack.cum == 9

    def test_delivery_engine_exposed(self):
        m = Machine(Ring(4), recorder_program(), reliability=True)
        assert isinstance(m.reliability, ReliableDelivery)
        assert m.reliability.pending == 0
