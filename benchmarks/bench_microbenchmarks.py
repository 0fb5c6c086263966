"""Micro-benchmarks for the hot kernels underneath the figure sweeps.

Classic pytest-benchmark timing (many rounds) of the operations the
profiling guides say to measure before optimising: simulator step
throughput, CNF simplification, sequential DPLL, topology queries and the
recursion engine's per-invocation overhead.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.sat import CNF, dpll_solve, uf20_91_suite, uniform_random_ksat
from repro.apps.traversal import run_traversal
from repro.engine import RunSpec, execute
from repro.netsim import EMPTY_MSG, FunctionalProgram, Machine
from repro.topology import Hypercube, Torus


@pytest.fixture(scope="module")
def sample_cnf():
    return uf20_91_suite(1, seed=123)[0]


def test_bench_machine_flood_throughput(benchmark):
    """Deliveries/second of the bare layer-1 event loop (Listing 1)."""
    topo = Torus((20, 20))

    def flood():
        _, report = run_traversal(topo)
        return report.delivered_total

    delivered = benchmark(flood)
    assert delivered == 1 + 4 * 400


def test_bench_machine_step_overhead(benchmark):
    """Cost of one event-loop step with a single hot node."""

    class PingPong:
        def init(self, ctx):
            ctx.state = None

        def on_message(self, ctx, sender, payload):
            ctx.send(ctx.neighbours[0], payload)

    m = Machine(Torus((16, 16)), PingPong())
    m.inject(0, EMPTY_MSG)

    benchmark(m.step)


def test_bench_machine_storm_step(benchmark):
    """Cost of one event-loop step with every node of a 20x20 torus busy."""

    class Storm:
        def init(self, ctx):
            ctx.state = 0

        def on_message(self, ctx, sender, payload):
            ctx.state += 1
            ctx.send(ctx.neighbours[ctx.state & 3], payload)

    m = Machine(Torus((20, 20)), Storm())
    for n in range(400):
        m.inject(n, EMPTY_MSG)
    m.step()

    assert benchmark(m.step) == 400


def test_bench_cnf_assign(benchmark, sample_cnf):
    """One uf20-91 simplification step (the solver's inner loop)."""
    lit = 1

    result = benchmark(sample_cnf.assign, lit)
    assert result.num_vars == 20


def test_bench_sequential_dpll(benchmark, sample_cnf):
    """Full sequential solve of one uf20-91 instance."""
    result = benchmark(dpll_solve, sample_cnf)
    assert result.satisfiable


def test_bench_torus_neighbours(benchmark):
    topo = Torus((32, 32))

    def query():
        total = 0
        for n in range(0, 1024, 7):
            total += len(topo.neighbours(n))
        return total

    assert benchmark(query) > 0


def test_bench_hypercube_distance(benchmark):
    topo = Hypercube(10)

    def query():
        total = 0
        for a in range(0, 1024, 31):
            for b in range(0, 1024, 37):
                total += topo.distance(a, b)
        return total

    assert benchmark(query) > 0


def test_bench_stack_recursion_overhead(benchmark):
    """End-to-end layer-5 overhead: sum(1..40) across a 64-core torus."""
    spec = RunSpec(
        workload="sumrec", workload_params={"n": 40},
        topology="torus:8x8", drain=False,
    )

    def run():
        return execute(spec).result

    assert benchmark(run) == 820


def test_bench_random_ksat_generation(benchmark):
    rng = random.Random(0)

    def gen():
        return uniform_random_ksat(20, 91, 3, rng)

    cnf = benchmark(gen)
    assert cnf.num_clauses == 91
