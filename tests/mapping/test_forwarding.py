"""Tests for multi-hop work forwarding: paths, reply relays, cancel relays."""

import pytest

from repro import HyperspaceStack
from repro.apps.fib import fib, sequential_fib
from repro.apps.sumrec import calculate_sum, closed_form_sum
from repro.mapping import MappingService, ReplyHandle
from repro.netsim import Machine
from repro.sched import SchedulerProgram
from repro.topology import Ring, Torus


class PathProbeApp:
    """Records the reply handle of each piece of work it executes."""

    def init(self, mctx):
        mctx.state = {"handles": []}

    def on_work(self, mctx, reply, payload, hint):
        if payload == "start":
            mctx.state["ticket"] = mctx.call("job")
        else:
            mctx.state["handles"].append(reply)
            mctx.reply(reply, ("done", mctx.node))

    def on_reply(self, mctx, ticket, payload):
        mctx.state["answer"] = payload

    def on_cancel(self, mctx, ticket):
        mctx.state.setdefault("cancelled", []).append(ticket)


def build(topology, app, forward_hops=0):
    service = MappingService(
        app, "rr", forward_hops=forward_hops
    )
    sched = SchedulerProgram([service])
    machine = Machine(topology, sched)
    return machine, sched


class TestForwardedPaths:
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_path_length_matches_forward_hops(self, hops):
        app = PathProbeApp()
        machine, sched = build(Ring(12), app, forward_hops=hops)
        machine.inject(0, "start")
        machine.run()
        handles = []
        for node in range(12):
            st = MappingService.app_state_of(sched.process_state(machine, node))
            handles.extend(st["handles"])
        assert len(handles) == 1
        handle = handles[0]
        # route covers every relay plus the issuer
        assert len(handle.route) == hops + 1
        assert handle.route[-1] == 0  # terminates at the issuer

    @pytest.mark.parametrize("hops", [1, 2, 4])
    def test_reply_relays_back_to_issuer(self, hops):
        app = PathProbeApp()
        machine, sched = build(Ring(12), app, forward_hops=hops)
        machine.inject(0, "start")
        machine.run()
        st0 = MappingService.app_state_of(sched.process_state(machine, 0))
        assert st0["answer"][0] == "done"

    def test_full_application_correct_with_forwarding(self):
        for hops in (0, 1, 2):
            stack = HyperspaceStack(Torus((4, 4)), forward_hops=hops, seed=2)
            result, report = stack.run_recursive(fib, 10, halt_on_result=False)
            assert result == sequential_fib(10)
            assert report.quiescent

    def test_forwarding_increases_traffic(self):
        def run(hops):
            stack = HyperspaceStack(Torus((4, 4)), forward_hops=hops, seed=2)
            _, report = stack.run_recursive(
                calculate_sum, 15, halt_on_result=False
            )
            return report.sent_total

        assert run(2) > run(0)

    def test_deep_recursion_with_forwarding(self):
        stack = HyperspaceStack(Ring(6), forward_hops=1, seed=1)
        result, _ = stack.run_recursive(calculate_sum, 40)
        assert result == closed_form_sum(40)


class TestRelaysRetireTheirLoad:
    """``_forward_work`` records load against the next hop on the relay's
    mapper; the relayed reply must retire it, or every relay's estimate of
    "sent but not yet answered" only ever grows."""

    @pytest.mark.parametrize(
        "knobs",
        [{"forward_hops": 0}, {"forward_hops": 1}, {"forward_hops": 2},
         {"share_threshold": 2}],
        ids=["hops0", "hops1", "hops2", "share2"],
    )
    @pytest.mark.parametrize("mapper", ["lbn", "hint"])
    def test_nothing_outstanding_after_a_drained_run(self, mapper, knobs):
        stack = HyperspaceStack(Torus((4, 4)), mapper=mapper, seed=1, **knobs)
        result, report = stack.run_recursive(fib, 10, halt_on_result=False)
        assert result == sequential_fib(10)
        assert report.quiescent
        run = stack.last_run
        for node in stack.topology.nodes():
            mapper_obj = run.scheduler.process_state(run.machine, node).mapper
            assert mapper_obj._outstanding == {}
            assert getattr(mapper_obj, "_sent_order", []) == []


class TestCancelThroughRelays:
    def test_cancel_chases_forwarded_work(self):
        # issuer forwards work 2 hops, then cancels the ticket; the cancel
        # must relay through the forwarding chain to the executing node
        class CancelProbe(PathProbeApp):
            def on_work(self, mctx, reply, payload, hint):
                if payload == "start":
                    ticket = mctx.call("job")
                    mctx.state["ticket"] = ticket
                    mctx.cancel(ticket)
                else:
                    mctx.state["handles"].append(reply)
                    # deliberately never reply: the work just sits here

        app = CancelProbe()
        machine, sched = build(Ring(12), app, forward_hops=2)
        machine.inject(0, "start")
        machine.run()
        cancelled = []
        for node in range(12):
            st = MappingService.app_state_of(sched.process_state(machine, node))
            cancelled.extend(st.get("cancelled", []))
        assert len(cancelled) == 1

    def test_cancellation_through_forwarding_in_full_stack(self):
        from repro.recursion import Call, Choice, Result, Sync

        def racing(task):
            if task == "root":
                yield Choice(
                    lambda r: r == "fast", Call("fast"), Call(("slow", 12))
                )
                got = yield Sync()
                yield Result(got)
            elif task == "fast":
                yield Result("fast")
            else:
                _, n = task
                if n == 0:
                    yield Result(None)
                else:
                    yield Call(("slow", n - 1))
                    sub = yield Sync()
                    yield Result(sub)

        stack = HyperspaceStack(
            Torus((4, 4)), forward_hops=1, cancellation=True, seed=3
        )
        result, report = stack.run_recursive(racing, "root", halt_on_result=False)
        assert result == "fast"
        assert report.quiescent
        assert stack.last_run.engine_stats.cancels_sent >= 1
