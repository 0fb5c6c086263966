"""Tests for the layer-3 mapping service (tickets, replies, status)."""

import pytest

from repro.errors import MappingError
from repro.mapping import (
    MappingService,
    ReplyHandle,
    StatusMsg,
    Ticket,
    queue_depth_load,
)
from repro.netsim import Machine
from repro.sched import SchedulerProgram
from repro.topology import Ring, Torus


class EchoApp:
    """Replies to every piece of work with (node, payload)."""

    def init(self, mctx):
        mctx.state = {"replies": [], "work": []}

    def on_work(self, mctx, reply, payload, hint):
        if payload == "start":
            mctx.state["ticket"] = mctx.call("job", hint=2.5)
        else:
            mctx.state["work"].append((payload, hint))
            mctx.reply(reply, ("done", mctx.node, payload))

    def on_reply(self, mctx, ticket, payload):
        mctx.state["replies"].append((ticket, payload))

    def on_cancel(self, mctx, ticket):
        pass


def build(topology, app, mapper="rr", status=None, **kw):
    service = MappingService(app, mapper, status, **kw)
    sched = SchedulerProgram([service])
    machine = Machine(topology, sched)
    return machine, sched, service


class TestCallReply:
    def test_work_travels_one_hop_and_reply_returns(self):
        app = EchoApp()
        machine, sched, service = build(Ring(5), app)
        machine.inject(0, "start")
        machine.run()
        st0 = MappingService.app_state_of(sched.process_state(machine, 0))
        assert len(st0["replies"]) == 1
        ticket, payload = st0["replies"][0]
        assert ticket == st0["ticket"]
        assert payload[0] == "done"
        # work executed at a neighbour of node 0
        assert payload[1] in Ring(5).neighbours(0)

    def test_hint_passes_through(self):
        app = EchoApp()
        machine, sched, service = build(Ring(5), app)
        machine.inject(0, "start")
        machine.run()
        worker = Ring(5).neighbours(0)[0]
        stw = MappingService.app_state_of(sched.process_state(machine, worker))
        assert stw["work"] == [("job", 2.5)]

    def test_tickets_are_unique_per_node(self):
        class ManyCalls:
            def init(self, mctx):
                mctx.state = []

            def on_work(self, mctx, reply, payload, hint):
                if payload == "start":
                    mctx.state = [mctx.call(i) for i in range(5)]
                else:
                    mctx.reply(reply, None)

            def on_reply(self, mctx, ticket, payload):
                pass

            def on_cancel(self, mctx, ticket):
                pass

        app = ManyCalls()
        machine, sched, _ = build(Ring(5), app)
        machine.inject(0, "start")
        machine.run()
        tickets = MappingService.app_state_of(sched.process_state(machine, 0))
        assert len(set(tickets)) == 5
        assert all(t.node == 0 for t in tickets)

    def test_external_reply_collected_as_result(self):
        class Immediate:
            def init(self, mctx):
                mctx.state = None

            def on_work(self, mctx, reply, payload, hint):
                mctx.reply(reply, payload * 2)

            def on_reply(self, mctx, ticket, payload):
                pass

            def on_cancel(self, mctx, ticket):
                pass

        machine, sched, _ = build(Ring(4), Immediate())
        machine.inject(2, 21)
        machine.run()
        results = MappingService.results_of(sched.process_state(machine, 2))
        assert results == [42]

    def test_halt_on_result(self):
        class Immediate:
            def init(self, mctx):
                mctx.state = None

            def on_work(self, mctx, reply, payload, hint):
                mctx.reply(reply, "r")

            def on_reply(self, mctx, ticket, payload):
                pass

            def on_cancel(self, mctx, ticket):
                pass

        machine, sched, _ = build(Ring(4), Immediate(), halt_on_result=True)
        machine.inject(0, "x")
        report = machine.run()
        assert report.steps == 1

    def test_empty_route_reply_rejected(self):
        class BadReply:
            def init(self, mctx):
                mctx.state = None

            def on_work(self, mctx, reply, payload, hint):
                mctx.reply(ReplyHandle(Ticket(0, 0), ()), "oops")

            def on_reply(self, mctx, ticket, payload):
                pass

            def on_cancel(self, mctx, ticket):
                pass

        machine, _, _ = build(Ring(4), BadReply())
        machine.inject(0, "x")
        with pytest.raises(MappingError):
            machine.run()


class TestActivityTracking:
    def test_received_count_increments_on_work(self):
        app = EchoApp()
        machine, sched, _ = build(Ring(5), app)
        machine.inject(0, "start")
        machine.run()
        view0 = MappingService.view_of(sched.process_state(machine, 0))
        # node 0 received: the trigger + the reply
        assert view0.received_count == 2

    def test_piggybacked_counts_observed(self):
        app = EchoApp()
        machine, sched, _ = build(Ring(5), app)
        machine.inject(0, "start")
        machine.run()
        worker = Ring(5).neighbours(0)[0]
        vieww = MappingService.view_of(sched.process_state(machine, worker))
        # worker saw node 0's count piggybacked on the work message
        assert 0 in vieww.neighbour_counts

    def test_status_messages_not_counted_as_activity(self):
        class Chatter:
            def init(self, mctx):
                mctx.state = None

            def on_work(self, mctx, reply, payload, hint):
                if reply is not None:
                    mctx.reply(reply, None)
                else:
                    for _ in range(6):
                        mctx.call("w")

            def on_reply(self, mctx, ticket, payload):
                pass

            def on_cancel(self, mctx, ticket):
                pass

        machine, sched, _ = build(Ring(3), Chatter(), status=1)
        machine.inject(0, "go")
        report = machine.run(max_steps=10_000)
        assert report.quiescent  # no status storm
        view = MappingService.view_of(sched.process_state(machine, 0))
        # trigger + 6 replies; statuses excluded
        assert view.received_count == 7


class Burst:
    """Node 0 delegates ``n`` jobs; every other node answers at once."""

    def __init__(self, n):
        self.n = n

    def init(self, mctx):
        mctx.state = None

    def on_work(self, mctx, reply, payload, hint):
        if reply is None:
            for _ in range(self.n):
                mctx.call("job")
        else:
            mctx.reply(reply, None)

    def on_reply(self, mctx, ticket, payload):
        pass

    def on_cancel(self, mctx, ticket):
        pass


def status_run(monkeypatch, status, n=6):
    """Drain a Burst of ``n`` on Ring(3); return the (node, count) pairs
    the nodes broadcast, the run's report and node 0's service state."""
    broadcasts = []
    original = MappingService._broadcast_status

    def spy(service, pctx, mstate):
        broadcasts.append((pctx.node, mstate.view.received_count))
        original(service, pctx, mstate)

    monkeypatch.setattr(MappingService, "_broadcast_status", spy)
    machine, sched, _ = build(Ring(3), Burst(n), status=status)
    machine.inject(0, "go")
    report = machine.run(max_steps=10_000)
    assert report.quiescent
    return broadcasts, report, sched.process_state(machine, 0)


class TestStatusPolicies:
    def test_no_status_policy(self, monkeypatch):
        broadcasts, report, state0 = status_run(monkeypatch, None)
        assert broadcasts == []
        # the trigger, 6 jobs out, 6 replies back, and not one StatusMsg
        assert report.sent_total == 13
        # the trigger and the replies were counted all the same
        assert MappingService.view_of(state0).received_count == 7
        assert state0.last_broadcast == 0

    def test_explicit_threshold(self, monkeypatch):
        # node 0 counts the trigger, then one reply per job: at threshold 3
        # it broadcasts after its 3rd and 6th counted message, not after the
        # 5th or the 7th; each worker counts its 3 jobs and broadcasts once
        broadcasts, report, state0 = status_run(monkeypatch, 3)
        assert [c for node, c in broadcasts if node == 0] == [3, 6]
        assert sorted(node for node, _ in broadcasts if node != 0) == [1, 2]
        # every broadcast goes to both neighbours of a Ring(3) node
        assert report.sent_total == 13 + 2 * len(broadcasts)
        assert state0.last_broadcast == 6

    def test_invalid_threshold(self):
        # the RunSpec status rule: True used to run as threshold 1, and the
        # numeric string "8" was parsed
        for status in (0, True, 2.5, "8"):
            with pytest.raises(
                MappingError,
                match=f"status must be None or an int >= 1, got {status!r}",
            ):
                build(Ring(3), EchoApp(), status=status)

    def test_status_traffic_appears_on_wire(self):
        app = EchoApp()
        m_off, _, _ = build(Torus((3, 3)), EchoApp(), status=None)
        m_off.inject(0, "start")
        off_sent = m_off.run().sent_total

        m_on, _, _ = build(Torus((3, 3)), app, status=1)
        m_on.inject(0, "start")
        on_sent = m_on.run().sent_total
        assert on_sent > off_sent


class TestForwardHops:
    def test_forwarded_work_still_replies_to_issuer(self):
        app = EchoApp()
        machine, sched, _ = build(Ring(8), app, forward_hops=2)
        machine.inject(0, "start")
        machine.run()
        st0 = MappingService.app_state_of(sched.process_state(machine, 0))
        assert len(st0["replies"]) == 1
        # with 2 forwarding hops the worker is 3 hops out (on a ring, distinct)
        _, payload = st0["replies"][0]
        worker = payload[1]
        assert worker not in (0,)

    def test_invalid_forward_hops(self):
        with pytest.raises(MappingError):
            MappingService(EchoApp(), "rr", forward_hops=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"forward_hops": 1.5},
            {"forward_hops": True},
            {"share_threshold": 2.5},
            {"share_threshold": True},
        ],
    )
    def test_refuses_bool_and_non_int(self, kwargs):
        # the forward-hops and share-threshold spec rules: 1.5 forwarded
        # twice and True was taken as 1
        with pytest.raises(MappingError, match=next(iter(kwargs))):
            MappingService(
                EchoApp(), "rr", load_fn=queue_depth_load, **kwargs
            )
