#!/usr/bin/env python3
"""Every combinatorial solver in the repo, on one machine.

Runs the full application zoo — SAT, N-queens, graph coloring, subset sum,
knapsack and TSP — on the same simulated 64-core torus, verifying each
answer against its sequential reference and comparing how the workloads
load the mesh.  Decision problems race speculative branches under
non-deterministic choice; optimization problems join all branches and
reduce.

Knapsack's workload record lives outside the package, in
``examples/zoo/knapsack.py``: it is registered for the run and removed.

Usage:  python examples/combinatorial_zoo.py
"""

import random

from repro import RunSpec, execute
from repro.apps.sat import uf20_91_suite
from repro.bench import format_table
from repro.workloads import WORKLOADS
from zoo import knapsack
from zoo.coloring import (
    ColoringProblem,
    chromatic_number,
    color_graph,
    cycle_graph,
    is_valid_coloring,
)
from zoo.subsetsum import random_subset_sum_problem, subset_sum
from zoo.tsp import TspProblem, random_distance_matrix, sequential_tsp, tsp

#: every cell's machine: a 64-core torus with least-busy-neighbour mapping
MACHINE = RunSpec(workload="custom", topology="torus2d:8x8", mapper="lbn")


def zoo_cells(rng):
    """``(label, kind, spec, attachments, check)`` for each solver; a cell
    naming a registered workload has no ``check``: its record verifies it."""
    cnf = uf20_91_suite(1, seed=7)[0]
    edges = cycle_graph(9)
    subsets = random_subset_sum_problem(14, rng, satisfiable=True)
    kp = knapsack.random_knapsack_problem(11, 55, rng)
    dist = random_distance_matrix(7, rng)
    return [
        ("3-SAT uf20-91", "decision", MACHINE.with_(
            workload="sat", workload_params=cnf.to_params(), simplify="single", seed=1,
        ), {}, None),
        ("7-queens", "decision", MACHINE.with_(
            workload="nqueens", workload_params={"n": 7}, seed=2,
        ), {}, None),
        ("3-color C9", "decision", MACHINE.with_(seed=3), {
            "fn": color_graph, "args": ColoringProblem.build(9, edges, 3),
        }, lambda colors: colors is not None
            and is_valid_coloring(9, edges, colors, 3)
            and chromatic_number(9, edges) == 3),
        ("subset sum (14)", "decision", MACHINE.with_(seed=4), {
            "fn": subset_sum, "args": subsets,
        }, lambda chosen: chosen is not None
            and sum(chosen) == subsets.remaining_target),
        ("knapsack (11)", "optimization", MACHINE.with_(
            workload="knapsack", seed=5,
            workload_params={
                "items": [list(it) for it in kp.items], "capacity": kp.capacity,
            },
        ), {}, None),
        ("TSP (7 cities)", "optimization", MACHINE.with_(seed=6), {
            "fn": tsp, "args": TspProblem.build(dist),
        }, lambda cost_tour: cost_tour[0] == sequential_tsp(dist)[0]),
    ]


def run_cell(spec, attachments, check):
    """Run one cell through the engine; returns the run and whether it verified."""
    run = execute(spec, **attachments)
    if check is None:
        record = WORKLOADS[spec.workload]
        return run, record.verify(spec.workload_params, None, run.verdict) is None
    return run, check(run.result)


def main() -> None:
    rows = []
    WORKLOADS["knapsack"] = knapsack.WORKLOAD  # plug the zoo's record in
    try:
        for label, kind, spec, attachments, check in zoo_cells(random.Random(7)):
            run, ok = run_cell(spec, attachments, check)
            rows.append([
                label,
                kind,
                run.report.computation_time,
                run.report.sent_total,
                run.engine_stats.invocations,
                "ok" if ok else "FAIL",
            ])
    finally:
        del WORKLOADS["knapsack"]  # the table is process-wide: leave it as found
    print(format_table(
        ["application", "kind", "steps", "messages", "invocations", "verified"],
        rows,
        title="combinatorial zoo on a 64-core 2D torus (least-busy-neighbour)",
    ))
    assert all(r[-1] == "ok" for r in rows)


if __name__ == "__main__":
    main()
