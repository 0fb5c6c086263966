"""Direct dispatch on a one-process node against the general drain loop.

With one process and no budget, a message that reaches an idle node is
handed straight to the process; local work the handler queues runs in the
same call.  A telemetry bus does not change that: the direct path
publishes what the drain would (the cursor, a run-queue sample of 1, a
context switch on a node's first run).  ``scheduler_budget=10**6`` never
runs out on these runs but takes the general ``_drain`` loop, so each pair
below must agree on the schedule, the verdict and the layer-4 counters,
and with a bus on every metric, ``events_emitted`` and the event stream.
"""

import random

import pytest

from repro.apps.sat import uf20_91_suite
from repro.apps.sat.generator import uniform_random_ksat
from repro.engine import RunSpec, execute
from repro.errors import SchedulingError
from repro.netsim import Machine
from repro.sched import Address, FunctionalProcess, SchedulerProgram
from repro.sched.scheduler import Packet
from repro.telemetry import EventLog, MetricsSubscriber, TelemetryBus
from repro.topology import Ring

GENERAL = 10**6

SPECS = {
    "fib": RunSpec(workload="fib", workload_params={"n": 10}, topology="torus:4x4x4"),
    "sat_lbn": RunSpec(
        workload="sat",
        workload_params=uf20_91_suite(1, seed=2017)[0].to_params(),
        topology="torus:6x6",
        mapper="lbn",
        status=16,
        drain=True,
        simplify="none",
        seed=1,
    ),
    "nqueens": RunSpec(
        workload="nqueens", workload_params={"n": 6}, topology="torus:4x4"
    ),
    "sat_cancel": RunSpec(
        workload="sat",
        workload_params=uniform_random_ksat(10, 43, 3, random.Random(2)).to_params(),
        topology="torus:4x4",
        simplify="none",
        cancellation=True,
        seed=3,
    ),
}


def outcome(run):
    return run.schedule_digest(), run.verdict, run.engine_stats.as_dict()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_direct_dispatch_matches_the_general_loop(name):
    spec = SPECS[name]
    direct = execute(spec)
    general = execute(spec.with_(scheduler_budget=GENERAL))
    assert outcome(direct) == outcome(general)


def observed(spec, with_log, drains):
    """The outcome of a run with a MetricsSubscriber (and an EventLog) and
    what they saw; ``drains`` gets one entry per general-loop run."""
    bus = TelemetryBus()
    metrics = bus.attach(MetricsSubscriber())
    log = bus.attach(EventLog()) if with_log else None
    drains.clear()
    run = execute(spec, telemetry=bus)
    stream = None if log is None else [event.as_dict() for event in log.events]
    return outcome(run), metrics.as_dict(), bus.events_emitted, stream


@pytest.mark.parametrize("with_log", [False, True], ids=["tally", "staging"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_direct_dispatch_with_a_bus_publishes_what_the_general_loop_does(
    name, with_log, monkeypatch
):
    drains = []
    drain = SchedulerProgram._drain

    def counted(self, ctx, sched):
        drains.append(ctx.node)
        drain(self, ctx, sched)

    monkeypatch.setattr(SchedulerProgram, "_drain", counted)
    spec = SPECS[name]
    direct = observed(spec, with_log, drains)
    direct_drains = len(drains)
    general = observed(spec.with_(scheduler_budget=GENERAL), with_log, drains)
    assert direct == general
    # the bus kept the direct path on: most messages skipped the loop
    assert direct_drains < len(drains) / 2


def local_relay(log):
    """Log (node, step, sender, payload); a positive payload goes on to this
    node's own process, and every third one to the next node too."""

    def handler(ctx, sender, payload):
        log.append((ctx.node, ctx.step, sender, payload))
        if payload > 0:
            ctx.send(Address(ctx.node, 0), payload - 1)
            if payload % 3 == 0:
                ctx.send(Address(ctx.neighbours[0], 0), payload - 1)

    return FunctionalProcess(handler)


def relay_run(budget):
    log = []
    m = Machine(Ring(4), SchedulerProgram([local_relay(log)], budget=budget))
    m.inject(0, 9)
    m.run()
    return log, [m.state_of(node).last_pid for node in range(4)]


def test_local_work_queued_by_a_direct_handler_runs_in_the_same_call():
    log, cursors = relay_run(None)
    assert (log, cursors) == relay_run(GENERAL)
    assert cursors == [0, 0, 0, 0]
    # the kickstart has no sender; node 3's first message comes from node 0
    # over the network, and the local chain it starts runs in that step
    assert log[0] == (0, 0, None, 9)
    assert [entry for entry in log if entry[0] == 3][:9] == [
        (3, 1, Address(0, 0), 8)
    ] + [(3, 1, Address(3, 0), p) for p in range(7, -1, -1)]


def test_a_packet_for_a_missing_pid_is_refused():
    m = Machine(Ring(3), SchedulerProgram([local_relay([])]))
    with pytest.raises(SchedulingError, match="no process 1"):
        m.program.on_message(m._contexts[1], 0, Packet(1, 0, 5))


def poll_then_direct(budget):
    """Node 0's kickstart queues local work and sends to node 1: in the next
    step node 0's poll samples an empty queue, then node 1's message is
    dispatched directly.  Returns the run-queue gauge and events_emitted."""

    def handler(ctx, sender, payload):
        if payload == "go":
            ctx.send(Address(ctx.node, 0), "local")
            ctx.send(Address(ctx.neighbours[0], 0), "net")

    bus = TelemetryBus()
    metrics = bus.attach(MetricsSubscriber())
    prog = SchedulerProgram([FunctionalProcess(handler)], budget=budget, telemetry=bus)
    m = Machine(Ring(3), prog, telemetry=bus)
    m.inject(0, "go")
    m.run()
    return metrics.as_dict()["l2.run_queue.level"], bus.events_emitted


def test_a_direct_dispatch_is_the_last_run_queue_sample_of_its_step():
    gauge, _ = poll_then_direct(None)
    assert (gauge["value"], gauge["low"], gauge["peak"]) == (1, 0, 1)
    assert poll_then_direct(None) == poll_then_direct(GENERAL)
