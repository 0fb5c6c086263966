"""Exact Python calls per delivery, ratcheted: a rise fails.

Host time on a shared machine wobbles by tens of percent, but the number
of Python calls a fixed batch makes is exact: ``cProfile`` counts every
call, and the same batch gives the same counts in every process.  This
test runs fixed batches under ``cProfile`` and checks, per ``repro``
package, the calls of ``repro``'s own named functions against the
ceilings below.  A row is either

* the smoke batch of an end-to-end benchmark workload
  (``benchmarks/e2e/workloads.py``; an observed one gets a fresh
  ``TelemetryBus`` with a ``MetricsSubscriber`` per run), or
* a layer-1 kernel load from ``KERNELS``: a storm (every node of a 20x20
  torus busy every step) or a ping-pong (one message on a 16x16 torus),
  bare or with telemetry, reliable delivery or inline shards switched
  on.  Telemetry and reliability are packages of their own, so a row's
  ``telemetry`` or ``reliability`` count is that feature's own cost, and
  the bare row pins the rest.

* A change that adds calls on a message's path fails here.  If the rise
  is meant, raise the ceiling in the same commit and say why.
* A change that removes calls lowers the ceiling in the same commit, so
  the gain is on record.

Comprehension frames (``<listcomp>``, ``<dictcomp>``, ``<setcomp>``) are
not counted: Python 3.12 inlines them (PEP 709).  Builtin calls differ by
version, so they are gated on Python 3.11 only.  Each batch runs once to
warm every cache and import, then once under the profiler with the cycle
collector off.
"""

import cProfile
import gc
import importlib.util
import os
import random
import sys
from contextlib import closing
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

import repro
from repro.engine import execute
from repro.netsim import EMPTY_MSG, FaultModel, Machine, ShardedMachine
from repro.reliability import ReliabilityConfig
from repro.telemetry import ChromeTraceExporter, MetricsSubscriber, TelemetryBus
from repro.topology import Torus

_WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
_PACKAGE = str(Path(repro.__file__).resolve().parent) + os.sep
_INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}
SEED = 2017

#: row -> (deliveries of its batch, calls per repro package (a
#: subpackage, or a top-level module without ``.py``), builtin calls)
CEILINGS: Dict[str, Tuple[int, Dict[str, int], int]] = {
    "fib_rr": (353, {
        "apps": 618, "declared": 65, "domains": 89, "engine": 38,
        "mapping": 1925, "netsim": 1376, "recursion": 2047, "rng": 193,
        "sched": 1701, "stack": 73, "topology": 250, "workloads": 5,
    }, 7330),
    "sat_lbn": (2501, {
        "apps": 11853, "declared": 37, "domains": 89, "engine": 38,
        "mapping": 11550, "netsim": 8138, "recursion": 11397, "rng": 109,
        "sched": 7865, "stack": 45, "topology": 159, "workloads": 9,
    }, 57970),
    "sparse_chain": (601, {
        "apps": 1202, "declared": 17, "domains": 89, "engine": 38,
        "mapping": 2533, "netsim": 8479, "recursion": 3655, "rng": 49,
        "sched": 1965, "stack": 25, "topology": 99, "workloads": 5,
    }, 17859),
    # sat_lbn's batch with a TelemetryBus and MetricsSubscriber per run
    "sat_observed": (2501, {
        "apps": 11853, "declared": 37, "domains": 89, "engine": 38,
        "mapping": 11550, "netsim": 10638, "recursion": 11397, "rng": 109,
        "sched": 7865, "stack": 45, "telemetry": 2784, "topology": 159,
        "workloads": 9,
    }, 62819),
    # the reliability path: drops, duplicates and ack/retransmit frames
    "sat_lossy": (2049, {
        "apps": 11845, "declared": 38, "domains": 95, "engine": 38,
        "mapping": 8485, "netsim": 14599, "recursion": 11389,
        "reliability": 15900, "rng": 111, "sched": 6509, "stack": 45,
        "topology": 159, "workloads": 9,
    }, 90721),
    # layer-1 kernel loads (KERNELS); the bare rows pin netsim and
    # topology, and a telemetry or reliability row adds that package
    "storm": (16000, {
        "domains": 7, "netsim": 51770, "topology": 2015,
    }, 79879),
    "storm_metrics": (16000, {
        "domains": 7, "netsim": 51770, "telemetry": 266, "topology": 2015,
    }, 80426),
    "storm_trace": (16000, {
        "domains": 7, "netsim": 51770, "telemetry": 99995, "topology": 2015,
    }, 180163),
    "pingpong": (2000, {
        "domains": 7, "netsim": 14529, "topology": 785,
    }, 24589),
    "pingpong_metrics": (2000, {
        "domains": 7, "netsim": 14529, "telemetry": 12026, "topology": 785,
    }, 50616),
    "pingpong_trace": (2000, {
        "domains": 7, "netsim": 14529, "telemetry": 30043, "topology": 785,
    }, 68642),
    "storm_reliable": (16000, {
        "declared": 1, "domains": 9, "netsim": 84971, "reliability": 16885,
        "topology": 2015,
    }, 195739),
    # 5% drop, 2% duplication: fewer deliveries, retransmits on top
    "storm_reliable_faulty": (10728, {
        "declared": 1, "domains": 13, "netsim": 79607, "reliability": 88385,
        "topology": 2015,
    }, 311569),
    # both features on: the protocol publishes to the bus itself
    "storm_reliable_metrics": (16000, {
        "declared": 1, "domains": 9, "netsim": 84971, "reliability": 86885,
        "telemetry": 32755, "topology": 2015,
    }, 326790),
    # the intent-collection and replay of four same-process shards
    "storm_sharded_inline": (16000, {
        "domains": 10, "netsim": 69399, "topology": 22826,
    }, 171692),
}


class _Storm:
    """Every node forwards every message it gets, round the compass."""

    def init(self, ctx):
        ctx.state = 0

    def on_message(self, ctx, sender, payload):
        ctx.state += 1
        ctx.send(ctx.neighbours[ctx.state & 3], payload)


class _PingPong:
    """Every message goes on along a node's first link."""

    def init(self, ctx):
        ctx.state = None

    def on_message(self, ctx, sender, payload):
        ctx.send(ctx.neighbours[0], payload)


def _drive(machine, injected: int, steps: int) -> List[int]:
    """Inject one message at each of the first ``injected`` nodes, take
    one warm-up step, then return the deliveries of each of ``steps``
    steps; the machine is closed after."""
    with closing(machine):
        for node in range(injected):
            machine.inject(node, EMPTY_MSG)
        machine.step()
        return [machine.step() for _ in range(steps)]


def _storm(**machine_kwargs) -> List[int]:
    return _drive(Machine(Torus((20, 20)), _Storm(), **machine_kwargs), 400, 40)


def _pingpong(**machine_kwargs) -> List[int]:
    return _drive(Machine(Torus((16, 16)), _PingPong(), **machine_kwargs), 1, 2000)


def _bus(*subscribers) -> TelemetryBus:
    bus = TelemetryBus()
    for subscriber in subscribers:
        bus.attach(subscriber)
    return bus


#: kernel row -> a fresh run of it, returning deliveries per step
KERNELS: Dict[str, Callable[[], List[int]]] = {
    "storm": _storm,
    "storm_metrics": lambda: _storm(telemetry=_bus(MetricsSubscriber())),
    "storm_trace": lambda: _storm(
        telemetry=_bus(MetricsSubscriber(), ChromeTraceExporter())),
    "pingpong": _pingpong,
    "pingpong_metrics": lambda: _pingpong(telemetry=_bus(MetricsSubscriber())),
    "pingpong_trace": lambda: _pingpong(
        telemetry=_bus(MetricsSubscriber(), ChromeTraceExporter())),
    "storm_reliable": lambda: _storm(reliability=ReliabilityConfig()),
    "storm_reliable_faulty": lambda: _storm(
        faults=FaultModel(0.05, 0.02, random.Random(SEED)),
        reliability=ReliabilityConfig()),
    "storm_reliable_metrics": lambda: _storm(
        reliability=ReliabilityConfig(), telemetry=_bus(MetricsSubscriber())),
    "storm_sharded_inline": lambda: _drive(ShardedMachine(
        Torus((20, 20)), _Storm(), shards=4, shard_backend="inline"), 400, 40),
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("e2e_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _batch(name: str) -> Callable[[], List[int]]:
    """A zero-argument run of row ``name``, returning delivery counts."""
    if name in KERNELS:
        return KERNELS[name]
    workload = _load_workloads()[name]
    cases = workload.build(SEED, True)

    def run() -> List[int]:
        # an observed workload gets a fresh bus per run, as the benchmark's
        # run_pass gives it
        return [
            execute(
                case.spec,
                telemetry=_bus(MetricsSubscriber()) if workload.observed else None,
            ).report.delivered_total
            for case in cases
        ]

    return run


def count_calls(name: str) -> Tuple[int, Dict[str, int], int]:
    """(deliveries, repro calls per package, builtin calls) of one
    profiled pass over row ``name``'s batch."""
    run = _batch(name)
    run()
    # garbage left by earlier tests could be collected (and its __del__
    # counted) inside the window: collect it first, and collect nothing
    # while profiling
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        delivered = run()
    finally:
        profiler.disable()
        gc.enable()
    calls: Dict[str, int] = {}
    builtins = 0
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            builtins += entry.callcount
        elif code.co_filename.startswith(_PACKAGE) and code.co_name not in _INLINED:
            package = code.co_filename[len(_PACKAGE):].split(os.sep)[0]
            package = package[:-3] if package.endswith(".py") else package
            calls[package] = calls.get(package, 0) + entry.callcount
    return sum(delivered), calls, builtins


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_calls_stay_under_their_ceilings(name):
    deliveries, calls, builtins = count_calls(name)
    want_deliveries, ceilings, builtin_ceiling = CEILINGS[name]
    # a different batch makes every count meaningless
    assert deliveries == want_deliveries
    over = {
        package: f"{n} > {ceilings.get(package, 0)} "
                 f"({n / deliveries:.2f} calls per delivery)"
        for package, n in sorted(calls.items()) if n > ceilings.get(package, 0)
    }
    assert not over, f"{name}: calls rose: {over}"
    if sys.version_info[:2] == (3, 11):
        assert builtins <= builtin_ceiling, (
            f"{name}: builtin calls rose: {builtins} > {builtin_ceiling}"
        )
