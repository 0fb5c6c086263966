"""Tests for the layer-2 process scheduler."""

import pytest

from repro.errors import CheckpointError, SchedulingError
from repro.netsim import Machine
from repro.sched import Address, FunctionalProcess, SchedulerProgram
from repro.state import LayerState
from repro.telemetry import TelemetryBus
from repro.topology import Ring, Torus


def collector(log):
    """Process that logs (node, pid, sender, payload) and stores payloads."""

    def handler(ctx, sender, payload):
        log.append((ctx.node, ctx.pid, sender, payload))
        ctx.state = payload

    return FunctionalProcess(handler)


def scripted(order):
    """Process whose payload is the local sends to make: (pid, payload)
    pairs.  Every message with a sender logs the pid that ran it."""

    def handler(ctx, sender, payload):
        if sender is not None:
            order.append(ctx.pid)
        for pid, nxt in payload:
            ctx.send(Address(ctx.node, pid), nxt)

    return FunctionalProcess(handler)


def round_robin_order(n_processes, sends):
    """Pid order in which a ``budget=1`` node runs the local ``sends`` that
    pid 0 makes on its trigger (one message per step after it)."""
    order = []
    prog = SchedulerProgram([scripted(order)] * n_processes, budget=1)
    m = Machine(Ring(3), prog)
    m.inject(0, sends)
    m.run()
    return order


class TestBasicDelivery:
    def test_trigger_goes_to_pid_zero(self):
        log = []
        prog = SchedulerProgram([collector(log), collector(log)])
        m = Machine(Ring(4), prog)
        m.inject(2, "hello")
        m.run()
        assert log == [(2, 0, None, "hello")]

    def test_inter_node_process_addressing(self):
        log = []

        def sender_handler(ctx, sender, payload):
            # forward to pid 1 on the first neighbour
            ctx.send(Address(ctx.neighbours[0], 1), payload + 1)

        prog = SchedulerProgram([FunctionalProcess(sender_handler), collector(log)])
        m = Machine(Ring(4), prog)
        m.inject(0, 10)
        m.run()
        assert log == [(3, 1, Address(0, 0), 11)]

    def test_local_delivery_without_network(self):
        log = []

        def local_handler(ctx, sender, payload):
            ctx.send(Address(ctx.node, 1), payload * 2)

        prog = SchedulerProgram([FunctionalProcess(local_handler), collector(log)])
        m = Machine(Ring(4), prog)
        m.inject(1, 21)
        report = m.run()
        assert log == [(1, 1, Address(1, 0), 42)]
        # only the trigger crossed the network
        assert report.sent_total == 1

    def test_reply_to_sender_address(self):
        trace = []

        def ping(ctx, sender, payload):
            if sender is None:
                ctx.send(Address(ctx.neighbours[0], 0), "ping")
            elif payload == "ping":
                trace.append(("ping-at", ctx.node))
                ctx.send(sender, "pong")
            else:
                trace.append(("pong-at", ctx.node))

        prog = SchedulerProgram([FunctionalProcess(ping)])
        m = Machine(Ring(5), prog)
        m.inject(0, None)
        m.run()
        assert trace == [("ping-at", 4), ("pong-at", 0)]

    def test_unknown_pid_rejected(self):
        def bad(ctx, sender, payload):
            ctx.send(Address(ctx.neighbours[0], 7), "x")

        prog = SchedulerProgram([FunctionalProcess(bad)])
        m = Machine(Ring(4), prog)
        m.inject(0, None)
        with pytest.raises(SchedulingError):
            m.run()

    def test_needs_at_least_one_process(self):
        with pytest.raises(SchedulingError):
            SchedulerProgram([])


class TestBudget:
    def test_invalid_budget(self):
        with pytest.raises(SchedulingError):
            SchedulerProgram([collector([])], budget=0)

    @pytest.mark.parametrize("budget", [True, 1.5, "2"])
    def test_budget_must_be_an_int(self, budget):
        # the same rule as RunSpec.scheduler_budget: bool and non-int refused
        with pytest.raises(SchedulingError, match="an int >= 1"):
            SchedulerProgram([collector([])], budget=budget)

    def test_budget_one_spreads_local_work_across_steps(self):
        done_steps = []

        def burst(ctx, sender, payload):
            if payload == "go":
                for i in range(3):
                    ctx.send(Address(ctx.node, 1), i)

        def worker(ctx, sender, payload):
            done_steps.append(ctx.step)

        prog = SchedulerProgram(
            [FunctionalProcess(burst), FunctionalProcess(worker)], budget=1
        )
        m = Machine(Ring(3), prog)
        m.inject(0, "go")
        m.run()
        # one local message per step after the burst
        assert done_steps == sorted(done_steps)
        assert len(set(done_steps)) == 3

    def test_unlimited_budget_drains_same_step(self):
        done_steps = []

        def burst(ctx, sender, payload):
            for i in range(4):
                ctx.send(Address(ctx.node, 1), i)

        def worker(ctx, sender, payload):
            done_steps.append(ctx.step)

        prog = SchedulerProgram(
            [FunctionalProcess(burst), FunctionalProcess(worker)], budget=None
        )
        m = Machine(Ring(3), prog)
        m.inject(0, "go")
        m.run()
        assert len(done_steps) == 4
        assert len(set(done_steps)) == 1


class TestPolicies:
    def test_round_robin_order(self):
        order = []

        def burst(ctx, sender, payload):
            # enqueue local work for pids 1 and 2 in one step
            ctx.send(Address(ctx.node, 2), "late")
            ctx.send(Address(ctx.node, 1), "early")

        worker = FunctionalProcess(lambda ctx, sender, payload: order.append(ctx.pid))
        prog = SchedulerProgram([FunctionalProcess(burst), worker, worker], budget=1)
        m = Machine(Ring(3), prog)
        m.inject(0, None)
        m.run()
        # round-robin goes by pid, not by arrival: pid 2's message came first
        assert order == [1, 2]

    def test_cycles_through_all(self):
        sends = [(3, ()), (1, ()), (2, ()), (3, ()), (2, ()), (1, ())]
        assert round_robin_order(4, sends) == [1, 2, 3, 1, 2, 3]

    def test_skips_non_runnable(self):
        # pid 2 has nothing queued and is passed over, every round
        sends = [(3, ()), (1, ()), (3, ()), (1, ())]
        assert round_robin_order(4, sends) == [1, 3, 1, 3]

    def test_wraps_after_highest(self):
        # pid 3 queues work for pid 1 and for itself: after the highest pid
        # the cursor wraps to the lowest runnable one, not back to pid 3
        assert round_robin_order(4, [(3, [(1, ()), (3, ())])]) == [3, 1, 3]

    def test_no_starvation_under_churn(self):
        # pid 1 re-queues itself five times; pids 2 and 3 still get a turn
        churn = ()
        for _ in range(5):
            churn = [(1, churn)]
        sends = [(1, churn), (3, ()), (2, ())]
        assert round_robin_order(4, sends) == [1, 2, 3, 1, 1, 1, 1, 1]


class TestOneProcessPath:
    """A one-process, unbudgeted node drains ``queues[0]`` directly; its
    twin with an idle second process takes the general ``_next_pid`` loop.
    Both must leave the same pid-0 state behind."""

    @staticmethod
    def _run(n_processes, bus):
        def countdown(ctx, sender, payload):
            ctx.state = (ctx.state or 0) + 1
            if payload:
                ctx.send(Address(ctx.node, 0), payload - 1)
                if payload % 3 == 0:
                    ctx.send((ctx.node, 0), 0)  # the plain-tuple address form

        idle = FunctionalProcess(lambda ctx, sender, payload: None)
        prog = SchedulerProgram(
            [FunctionalProcess(countdown)] + [idle] * (n_processes - 1),
            telemetry=bus,
        )
        m = Machine(Torus((3, 3)), prog, telemetry=bus)
        for node in (0, 4, 8):
            m.inject(node, 7 + node)
        m.run()
        m.inject(4, 5)  # a second drain on a node whose cursor has moved
        m.run()
        return prog.snapshot(m).data["nodes"]

    @pytest.mark.parametrize("with_bus", [False, True], ids=["bare", "bus"])
    def test_same_state_as_the_general_path(self, with_bus, monkeypatch):
        next_pid_calls = []
        general = SchedulerProgram._next_pid
        monkeypatch.setattr(
            SchedulerProgram,
            "_next_pid",
            lambda self, sched: next_pid_calls.append(1) or general(self, sched),
        )
        bus = TelemetryBus() if with_bus else None
        solo = self._run(1, bus)
        assert not next_pid_calls  # the one-process path never scans queues
        bus = TelemetryBus() if with_bus else None
        twin = self._run(2, bus)
        assert next_pid_calls
        for mine, theirs in zip(solo, twin):
            for key in ("budget_step", "budget_used", "poll_pending", "last_pid"):
                assert mine[key] == theirs[key], key
            assert mine["procs"][0] == theirs["procs"][0]
            assert mine["queues"][0] == theirs["queues"][0] == []
        # node 4 handled 11..0 plus three extra zeros, then 5..0 plus one
        assert solo[4]["procs"][0] == ("raw", 15 + 7)
        assert solo[4]["last_pid"] == 0  # kept with or without a bus

    def test_round_robin_cursor_after_a_drain(self):
        prog = SchedulerProgram([collector([])])
        m = Machine(Ring(3), prog)
        m.inject(1, "x")
        m.run()
        assert m.state_of(1).last_pid == 0
        assert m.state_of(0).last_pid == -1  # never ran

    def test_select_runs_once_per_node(self):
        # one cursor move per node: both drains run pid 0, in arrival order
        log = []
        prog = SchedulerProgram([collector(log)])
        m = Machine(Ring(3), prog)
        for payload in range(4):
            m.inject(1, payload)
        m.run()
        m.inject(1, "later")  # a second drain on the same node
        m.run()
        assert [entry[3] for entry in log] == [0, 1, 2, 3, "later"]
        assert m.state_of(1).last_pid == 0


class TestInspection:
    def test_process_state_accessor(self):
        log = []
        prog = SchedulerProgram([collector(log)])
        m = Machine(Ring(4), prog)
        m.inject(0, "val")
        m.run()
        assert prog.process_state(m, 0, 0) == "val"

    def test_process_state_bad_pid(self):
        prog = SchedulerProgram([collector([]), collector([])])
        m = Machine(Ring(4), prog)
        # -1 is not pid 1 read from the end of the node's contexts
        for pid in (5, 2, -1, -2):
            with pytest.raises(SchedulingError, match=f"no process {pid} "):
                prog.process_state(m, 0, pid)

    def test_n_processes(self):
        prog = SchedulerProgram([collector([]), collector([])])
        assert prog.n_processes == 2

    def test_contexts_are_per_node(self):
        states = {}

        def handler(ctx, sender, payload):
            ctx.state = (ctx.node, payload)
            states[ctx.node] = ctx.state

        prog = SchedulerProgram([FunctionalProcess(handler)])
        m = Machine(Torus((2, 2)), prog)
        for n in range(4):
            m.inject(n, n * 10)
        m.run()
        assert states == {0: (0, 0), 1: (1, 10), 2: (2, 20), 3: (3, 30)}


class TestSnapshot:
    def _queued(self):
        """A budget=1 node snapshotted with local work still queued."""
        prog = SchedulerProgram([scripted([])] * 3, budget=1)
        m = Machine(Ring(3), prog)
        m.inject(0, [(2, ()), (1, ()), (2, ())])
        m.step()
        return prog, m

    def test_node_snapshot_holds_only_what_the_scheduler_reads(self):
        prog, m = self._queued()
        node = prog.snapshot(m).data["nodes"][0]
        assert set(node) == {
            "queues", "budget_step", "budget_used", "poll_pending", "last_pid", "procs"
        }
        assert node["queues"] == {0: [], 1: [(Address(0, 0), ())],
                                  2: [(Address(0, 0), ()), (Address(0, 0), ())]}
        assert node["last_pid"] == 0

    def test_version_1_snapshot_refused(self):
        prog, m = self._queued()
        old = LayerState("sched", 1, prog.snapshot(m).data)
        with pytest.raises(CheckpointError, match="version 1 not supported"):
            prog.restore(m, old)

    def test_version_2_snapshot_refused(self):
        # version 2 pickled a status-policy object in each layer-3 state
        prog, m = self._queued()
        old = LayerState("sched", 2, prog.snapshot(m).data)
        with pytest.raises(CheckpointError, match="version 2 not supported"):
            prog.restore(m, old)
