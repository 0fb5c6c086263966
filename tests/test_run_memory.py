"""A run's memory follows its events, and a finished run frees itself.

Two halves of one promise about what a run leaves behind:

* layer 1 records a stretch of empty steps as one gap, so a run that
  spends millions of steps waiting on link latency holds a few hundred
  bytes of trace, not one int per step (twice);
* ``Machine.close`` (which ``execute`` runs in its ``finally``) breaks
  every reference cycle of the run — machine and node contexts,
  scheduler, mapping and reliability state, the inline shard cell — so
  dropping the result frees it by reference counting, and the cycle
  collector finds nothing.
"""

import gc
import tracemalloc

import pytest

from repro.engine import RunSpec, execute
from repro.telemetry import EventLog, MetricsSubscriber, TelemetryBus

SAT = {"num_vars": 8, "num_clauses": 30, "formula_seed": 3}

#: one run of each kind of state a stack can hold
CONFIGS = {
    "sat-lbn-status": RunSpec(
        workload="sat", workload_params=SAT, topology="torus:3x3",
        mapper="lbn", status=4,
    ),
    "sat-drain-cancellation": RunSpec(
        workload="sat", workload_params=SAT, topology="torus:3x3",
        drain=True, cancellation=True,
    ),
    "fib-lossy-reliable": RunSpec(
        workload="fib", workload_params={"n": 6}, topology="ring:4",
        drop=0.05, duplicate=0.02, reliable=True,
    ),
    "nqueens-hint": RunSpec(
        workload="nqueens", workload_params={"n": 5}, topology="grid:2x4",
        mapper="hint",
    ),
    "traversal": RunSpec(workload="traversal", workload_params={}, topology="hypercube:3"),
    "sumrec-latency": RunSpec(
        workload="sumrec", workload_params={"n": 4}, topology="ring:4", latency=5,
    ),
    "fib-shards2-inline": RunSpec(
        workload="fib", workload_params={"n": 6}, topology="ring:4",
        shards=2, shard_backend="inline",
    ),
    "fib-lifo": RunSpec(
        workload="fib", workload_params={"n": 6}, topology="ring:4", queue_policy="lifo",
    ),
}


def _bus():
    bus = TelemetryBus()
    bus.attach(MetricsSubscriber())
    bus.attach(EventLog())
    return bus


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "bus"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_finished_run_leaves_no_cyclic_garbage(name, observed):
    spec = CONFIGS[name]
    execute(spec, telemetry=_bus() if observed else None)  # warm every cache
    gc.collect()
    gc.disable()
    try:
        result = execute(spec, telemetry=_bus() if observed else None)
        assert result.completed
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_million_step_latency_costs_no_memory():
    spec = RunSpec(
        workload="sumrec", workload_params={"n": 3}, topology="ring:4",
        latency=10**6, max_steps=10**7,
    )
    execute(spec.with_(latency=1))  # imports and caches outside the window
    tracemalloc.start()
    try:
        result = execute(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.report.steps == 6_000_007
    assert result.verdict["value"] == 6
    assert peak < 1 << 20
