"""ABL3 — cross-layer optimization hints (paper §III-B3).

"Mapping algorithms can exploit such knowledge to further optimize load
balancing across the mesh (e.g. by delegating larger sub-problems to less
utilized sub-regions)."

The paper proposes hints in prose without evaluating them; this ablation
does, and finds a subtlety the prose misses: **on a hyperspace machine a
delegated subtree does not stay at the neighbour it was sent to — it
diffuses onward** — so a neighbour's near-term load is O(1) per subcall
regardless of subtree size.  Hints scaled like subtree magnitude
(e.g. fib's phi**n) therefore *mislead* the mapper, while unit-scaled
outstanding-call counting (the default) is well calibrated.  The bench
pins both directions:

* unit-scale hints match the plain adaptive mapper on fib;
* raw magnitude hints are measurably worse;
* knapsack's fractional-bound hints (value-scaled, same problem) do not
  beat the unit default either.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.fib import fib, fib_hinted
from repro.bench import format_table
from repro.engine import RunSpec, execute
from zoo.knapsack import make_knapsack_solver, random_knapsack_problem, sequential_knapsack

DIMS = (8, 8)
TOPOLOGY = "torus:" + "x".join(str(d) for d in DIMS)


def run_fib_hint_sweep(n=15):
    rows = []
    configs = (
        ("lbn baseline", "lbn", fib),
        ("hint, unit-scale", "hint", fib),
        ("hint, magnitude (phi^n)", "hint", fib_hinted),
    )
    for label, mapper, fn in configs:
        spec = RunSpec(
            workload="custom", workload_params={},
            topology=TOPOLOGY, mapper=mapper, seed=1, drain=True,
        )
        run = execute(spec, fn=fn, args=n)
        assert run.result == 610
        rows.append({"config": label, "ct": run.report.computation_time})
    return rows


def run_knapsack_hint_sweep(n_problems=4, n_items=12):
    rng = random.Random(2024)
    problems = [random_knapsack_problem(n_items, 60, rng) for _ in range(n_problems)]
    rows = []
    for label, use_hints in (("bound hints", True), ("unit default", False)):
        cts = []
        for i, prob in enumerate(problems):
            solver = make_knapsack_solver(use_hints=use_hints, prune=False)
            spec = RunSpec(
                workload="custom", workload_params={},
                topology=TOPOLOGY, mapper="hint", seed=10 + i, drain=True,
            )
            run = execute(spec, fn=solver, args=prob)
            assert run.result == sequential_knapsack(prob.items, prob.capacity)
            cts.append(run.report.computation_time)
        rows.append({"config": label, "ct": sum(cts) / len(cts)})
    return rows


def test_bench_fib_hint_scaling(benchmark, emit):
    rows = benchmark.pedantic(run_fib_hint_sweep, rounds=1, iterations=1)
    emit(format_table(
        ["config", "computation time"],
        [[r["config"], round(r["ct"], 1)] for r in rows],
        title="ABL3a — hint scaling on fib(15) (64-core torus)",
    ))
    by = {r["config"]: r["ct"] for r in rows}
    # unit-scale hints are as good as the plain adaptive mapper ...
    assert by["hint, unit-scale"] <= 1.1 * by["lbn baseline"]
    # ... while magnitude hints mislead (work diffuses off the neighbour)
    assert by["hint, magnitude (phi^n)"] > by["hint, unit-scale"]


def test_bench_knapsack_hints(benchmark, emit):
    rows = benchmark.pedantic(run_knapsack_hint_sweep, rounds=1, iterations=1)
    emit(format_table(
        ["config", "mean computation time"],
        [[r["config"], round(r["ct"], 1)] for r in rows],
        title="ABL3b — knapsack fractional-bound hints (64-core torus)",
    ))
    by = {r["config"]: r["ct"] for r in rows}
    # value-scaled bound hints carry no load signal either; the unit
    # default stays within a comfortable margin of (usually beats) them
    assert by["unit default"] <= 1.25 * by["bound hints"]
