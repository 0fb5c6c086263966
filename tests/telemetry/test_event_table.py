"""Layers 2-4 publish each instant with one ``bus.event`` call.

``EVENT_ATTRS`` names the values of every such call.  These tests hold the
published stream, the tables in ``docs/observability.md`` and the cursor a
shard worker stamps to that one table.
"""

import json
import re
from collections import Counter
from pathlib import Path

from repro.engine import RunSpec, execute
from repro.netsim import Machine
from repro.sched import Address, FunctionalProcess, SchedulerProgram
from repro.telemetry import EventLog, TelemetryBus
from repro.telemetry.events import EVENT_ATTRS
from repro.topology import Ring

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

UF20 = RunSpec(
    workload="sat",
    workload_params={"num_vars": 20, "num_clauses": 91, "formula_seed": 1},
    topology="torus2d:4x4",
    mapper="lbn",
    status=4,
    seed=3,
)
FIB = RunSpec(workload="fib", workload_params={"n": 8}, topology="ring:6", seed=1)


def logged(spec):
    bus = TelemetryBus()
    log = bus.attach(EventLog())
    assert execute(spec, telemetry=bus).completed
    return log


def budgeted_burst():
    """Two processes on a budget of one: the node queues work it cannot run."""

    def burst(ctx, sender, payload):
        if payload == "go":
            for i in range(3):
                ctx.send(Address(ctx.node, 1), i)

    def worker(ctx, sender, payload):
        pass

    bus = TelemetryBus()
    log = bus.attach(EventLog())
    prog = SchedulerProgram(
        [FunctionalProcess(burst), FunctionalProcess(worker)], budget=1, telemetry=bus
    )
    m = Machine(Ring(3), prog, telemetry=bus)
    m.inject(0, "go")
    m.run()
    return log


def is_instant(event):
    """A layer 2-4 instant: not the ``run_queue`` gauge, not a span."""
    return 2 <= event.layer <= 4 and event.dur is None and not event.is_counter


def test_every_published_instant_has_its_row_and_every_row_is_published():
    logs = [
        logged(UF20.with_(cancellation=True)),
        logged(FIB.with_(forward_hops=1)),
        logged(FIB.with_(duplicate=0.2)),  # unprotected: dup_work, late_reply
        budgeted_burst(),
    ]
    seen = set()
    for log in logs:
        for event in filter(is_instant, log.events):
            key = (event.layer, event.name)
            assert tuple(event.attrs or ()) == EVENT_ATTRS.get(key), key
            seen.add(key)
    assert seen == set(EVENT_ATTRS)


def documented_attrs():
    """(layer, name) -> attribute names, from the layer 2-4 doc tables."""
    rows = {}
    layer = None
    for line in DOC.read_text().splitlines():
        heading = re.match(r"### Layer (\d) ", line)
        if heading:
            layer = int(heading.group(1))
        elif layer in (2, 3, 4) and line.startswith("| `"):
            name, attrs = line.split("|")[1:3]
            if "(counter)" in attrs or "span" in attrs:
                continue  # the run_queue gauge and the invocation span
            rows[layer, name.strip().strip("`")] = tuple(re.findall(r"`(\w+)`", attrs))
    return rows


def test_the_doc_tables_list_the_table():
    assert documented_attrs() == EVENT_ATTRS


def test_process_shards_stamp_the_serial_cursor():
    # layers 2-5 run on the workers, whose scheduler sets the worker bus's
    # cursor: every event, probes included, must land where serial put it
    def layered(spec):
        return Counter(
            json.dumps(e.as_dict(), sort_keys=True)
            for e in logged(spec).events
            if e.layer >= 2
        )

    serial = layered(UF20)
    assert layered(UF20.with_(shards=2, shard_backend="process")) == serial
    layers = Counter(json.loads(e)["layer"] for e in serial.elements())
    assert all(layers[k] > 0 for k in (2, 3, 4, 5))
