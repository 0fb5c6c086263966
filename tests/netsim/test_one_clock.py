"""``Machine.run`` jumps over empty time; ``Machine.step`` does not.

When every inbox is empty and no node asked to be polled, ``run`` sets the
clock to the next scheduled event (a maturing message, a reliability frame
or timer) and accounts the steps in between in bulk.  The referee is a twin
machine driven one ``step()`` at a time — the public one-tick API, which
executes every empty step as it always did:

(a) the jump is invisible: trace, report, node states, link stats, metrics
    registry and event list equal the hand-stepped twin's;
(b) a checkpoint boundary or ``max_steps`` inside a gap is honoured at
    exactly that step, and a resume from mid-gap lands on the same run;
(c) the jump is taken: a ``latency=32`` chain costs about one ``step()``
    per message, not one per simulated step.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine import RunSpec, execute
from repro.errors import SimulationError
from repro.netsim import Machine, ShardedMachine, ShardProgramSpec
from repro.netsim.faults import FaultModel
from repro.netsim.trace import TraceRecorder
from repro.state import state_digest_of
from repro.telemetry import EventLog, MetricsSubscriber, TelemetryBus
from repro.topology import Ring


class Chain:
    """Pass a counter round the ring until it reaches zero."""

    def init(self, ctx):
        ctx.state = 0

    def on_message(self, ctx, sender, payload):
        ctx.state += 1
        if payload > 0:
            ctx.send(ctx.neighbours[0], payload - 1)


class Fanout(Chain):
    """Two sends per delivery (both neighbours), so inboxes back up and a
    non-FIFO pop order has something to choose from."""

    def on_message(self, ctx, sender, payload):
        ctx.state += 1
        if payload > 0:
            for dst in ctx.neighbours:
                ctx.send(dst, payload - 1)


class Poller(Chain):
    """Each delivery also books two rounds of local work through
    ``request_poll`` — steps that deliver nothing but must still execute."""

    def on_message(self, ctx, sender, payload):
        super().on_message(ctx, sender, payload)
        ctx.state += 100
        ctx.machine.request_poll(ctx.node)

    def on_step(self, ctx):
        ctx.state += 1000
        if ctx.state % 2000 >= 1000:
            ctx.machine.request_poll(ctx.node)


class Halter(Chain):
    """Halt at the fourth delivery, with a message still in flight."""

    def on_message(self, ctx, sender, payload):
        super().on_message(ctx, sender, payload)
        if payload == 5:
            ctx.machine.halt()


def observed():
    bus = TelemetryBus()
    return bus, bus.attach(MetricsSubscriber()), bus.attach(EventLog())


def faults(drop, duplicate):
    return FaultModel(drop, duplicate, rng=random.Random(7))


#: name -> (program class, payload, Machine keyword factory); the factory is
#: called once per twin so that RNG-carrying arguments are never shared
GRID = {
    "latency-int": (Chain, 6, lambda: dict(latency=32)),
    "latency-one": (Chain, 6, lambda: dict(latency=1)),
    "drops": (Fanout, 6, lambda: dict(latency=5, faults=faults(0.2, 0.0))),
    "duplicates": (Chain, 8, lambda: dict(latency=5, faults=faults(0.0, 0.3))),
    "reliable-clean": (Chain, 6, lambda: dict(latency=4, reliability=True)),
    "reliable-clean-zero-latency": (Chain, 6, lambda: dict(reliability=True)),
    "reliable-lossy": (
        Fanout, 5, lambda: dict(latency=9, reliability=True, faults=faults(0.15, 0.1))
    ),
    "lifo": (Fanout, 5, lambda: dict(latency=3, queue_policy="lifo")),
    # this fan-out peaks at 5 queued in one inbox: the bound is checked, never hit
    "fifo-bounded": (Fanout, 5, lambda: dict(latency=3, queue_capacity=8)),
    "queue-depths": (
        Fanout, 4,
        lambda: dict(latency=6, trace=TraceRecorder(5, record_queue_depths=True)),
    ),
    "polls": (Poller, 4, lambda: dict(latency=7)),
    "halt": (Halter, 8, lambda: dict(latency=11)),
    "zero-latency": (Fanout, 5, dict),
}


def hand_step(m, max_steps, every=None, sink=None):
    """What ``run`` did before it had a clock: one ``step()`` per tick."""
    while m.current_step + 1 < max_steps and not m._halted and not m.is_quiescent:
        m.step()
        if every is not None and (m.current_step + 1) % every == 0:
            sink(m)
    if m._telemetry is not None:
        m._telemetry.flush()
    return m.report()


def everything(m, report, metrics=None, log=None):
    """Every observable of a finished machine, as plain comparable data."""
    out = dict(m.trace.snapshot())
    out.update(
        steps=report.steps,
        quiescent=report.quiescent,
        current_step=m.current_step,
        halted=m._halted,
        states=[m.state_of(n) for n in range(m.topology.n_nodes)],
        link=None if m.reliability is None else m.reliability.stats.as_dict(),
        state=layers_digest(m),
    )
    if metrics is not None:
        out["metrics"] = metrics.as_dict()
        out["events"] = [event.as_dict() for event in log.events]
        out["events_emitted"] = m._telemetry.events_emitted
    return out


def layers_digest(m):
    layers = {"netsim": m.snapshot()}
    if m.reliability is not None:
        layers["reliability"] = m.reliability.snapshot()
    return state_digest_of(layers)


def twins(name, with_bus):
    program, payload, kwargs = GRID[name]
    out = []
    for _ in range(2):
        bus, metrics, log = observed() if with_bus else (None, None, None)
        m = Machine(Ring(5), program(), telemetry=bus, **kwargs())
        m.inject(0, payload)
        out.append((m, metrics, log))
    return out


# -- (a) the jump is invisible ------------------------------------------------


@pytest.mark.parametrize("with_bus", [False, True], ids=["bare", "bus"])
@pytest.mark.parametrize("max_steps", [10_000, 41])
@pytest.mark.parametrize("name", sorted(GRID))
def test_run_equals_hand_stepping(name, max_steps, with_bus):
    (ran, *ran_obs), (stepped, *stepped_obs) = twins(name, with_bus)
    got = everything(ran, ran.run(max_steps=max_steps), *ran_obs)
    want = everything(stepped, hand_step(stepped, max_steps), *stepped_obs)
    assert got == want
    assert got["steps"] <= max_steps
    assert len(got["queued_series"]) == got["steps"]


def test_run_in_slices_equals_one_run():
    # every slice ends mid-gap and the next one starts there
    (sliced, _, _), (whole, _, _) = twins("latency-int", False)
    for stop in range(7, 400, 7):
        sliced.run(max_steps=stop)
    assert everything(sliced, sliced.report()) == everything(whole, whole.run())


@settings(max_examples=60, deadline=None)
@given(
    latency=st.integers(0, 40),
    length=st.integers(0, 12),
    max_steps=st.integers(0, 600),
    reliable=st.booleans(),
)
def test_chain_parity_property(latency, length, max_steps, reliable):
    pair = []
    for _ in range(2):
        m = Machine(Ring(4), Chain(), latency=latency, reliability=reliable)
        m.inject(1, length)
        pair.append(m)
    ran, stepped = pair
    got = everything(ran, ran.run(max_steps=max_steps))
    assert got == everything(stepped, hand_step(stepped, max_steps))


def test_sharded_machine_jumps_too():
    serial = Machine(Ring(6), Chain(), latency=32)
    sharded = ShardedMachine(
        Ring(6), ShardProgramSpec(Chain), shards=2,
        shard_backend="inline", latency=32,
    )
    calls = count_steps(sharded)
    reports = []
    for m in (serial, sharded):
        m.inject(0, 5)
        reports.append(m.run())
    assert calls[0] <= 6 + 2
    assert reports[0].steps == reports[1].steps == 5 * 33 + 1
    assert serial.trace.snapshot() == sharded.trace.snapshot()


def test_pending_frames_with_nothing_scheduled_run_out_the_clock():
    # a protocol bug, not a state the protocol reaches: frames outstanding
    # and no arrival or timer to wait for.  Stepped, that spun to max_steps;
    # the clock goes there in one jump and the report says the same.
    m = Machine(Ring(4), Chain(), reliability=True, latency=2)
    m.reliability._unacked_total = 1
    calls = count_steps(m)
    report = m.run(max_steps=500)
    assert (report.steps, report.quiescent, calls[0]) == (500, False, 0)
    assert report.queued_series.tolist() == [0] * 500


# -- (b) boundaries inside a gap ----------------------------------------------


@pytest.mark.parametrize("name", ["latency-int", "reliable-lossy", "polls"])
def test_checkpoint_boundaries_inside_a_gap(name):
    (ran, _, _), (stepped, _, _) = twins(name, False)
    seen = {id(ran): [], id(stepped): []}

    def sink(m):
        seen[id(m)].append((m.current_step + 1, layers_digest(m)))

    ran.run(checkpoint_every=5, checkpoint_sink=sink)
    hand_step(stepped, 1_000_000, every=5, sink=sink)
    assert seen[id(ran)] == seen[id(stepped)]
    # every multiple of five up to the last step, most of them mid-gap
    steps = [step for step, _ in seen[id(ran)]]
    assert steps == list(range(5, ran.current_step + 2, 5))


def test_resume_from_a_checkpoint_taken_mid_gap():
    spec = RunSpec(workload="sumrec", workload_params={"n": 6},
                   topology="ring:6", latency=32, seed=4)
    whole = execute(spec, want_state_digest=True)
    checkpoints = []
    execute(spec.with_(checkpoint_every=5), checkpoint_sink=checkpoints.append)
    assert [c.step + 1 for c in checkpoints] == list(range(5, whole.report.steps, 5))
    # steps 33 k + 1 .. 33 k + 32 are empty: 50 steps done is deep inside a gap
    mid_gap = next(c for c in checkpoints if c.step + 1 == 50)
    resumed = execute(spec, resume_from=mid_gap, want_state_digest=True)
    assert resumed.report.steps == whole.report.steps
    assert resumed.schedule_digest() == whole.schedule_digest()
    assert resumed.semantic_digest == whole.semantic_digest
    assert resumed.state_digest == whole.state_digest


def test_max_steps_mid_gap_stops_exactly_there():
    m = Machine(Ring(4), Chain(), latency=32)
    m.inject(0, 3)
    report = m.run(max_steps=50)
    assert (report.steps, report.quiescent, m.current_step) == (50, False, 49)
    assert report.delivered_series.nonzero()[0].tolist() == [0, 33]
    # and picks up from there
    report = m.run()
    assert (report.steps, report.quiescent) == (3 * 33 + 1, True)
    assert report.delivered_series.nonzero()[0].tolist() == [0, 33, 66, 99]


# -- (c) the jump is taken ----------------------------------------------------


def count_steps(m):
    """Count ``step()`` calls on this instance (``run`` reads ``self.step``)."""
    calls = [0]
    step = m.step

    def counted():
        calls[0] += 1
        return step()

    m.step = counted
    return calls


@pytest.mark.parametrize("with_bus", [False, True], ids=["bare", "bus"])
def test_a_latent_chain_costs_one_step_call_per_message(with_bus):
    n = 20
    bus, metrics, log = observed() if with_bus else (None, None, None)
    m = Machine(Ring(5), Chain(), latency=32, telemetry=bus)
    m.inject(0, n - 1)
    calls = count_steps(m)
    report = m.run()
    assert report.delivered_total == n
    assert report.steps == 33 * (n - 1) + 1
    assert calls[0] <= n + 2
    if with_bus:
        # an observed run saves the step() calls, not the publications
        queued = [e for e in log.events if e.name == "queued"]
        assert [e.step for e in queued] == list(range(report.steps))
        assert metrics.as_dict()["l1.queued"]["value"] == report.steps


# -- a maturity step is an integer --------------------------------------------


@pytest.mark.parametrize("latency", [1.5, 2.0, True, "3", None, lambda s, d: 2])
def test_non_integer_latency_is_rejected_at_construction(latency):
    with pytest.raises(SimulationError, match="latency"):
        Machine(Ring(4), Chain(), latency=latency)
