"""ABL6 — branching-heuristic sweep (paper §V-B prose).

The paper's literal selection is "an algorithm-independent heuristic" it
never names.  This bench sweeps the classic candidates for both the
sequential reference solver (search-tree size) and the distributed solver
(computation time), showing the layers tolerate any heuristic and how much
the choice matters.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.sat import dpll_solve
from repro.bench import format_table, sat_suite
from repro.parallel import sat_cell, solve_sat_tasks
from repro.topology import Torus

HEURISTICS = ("first", "max_occurrence", "jeroslow_wang", "moms")
DIMS = (10, 10)


def run_heuristic_sweep(preset, jobs=None):
    problems = sat_suite(preset)
    tasks = [
        sat_cell(
            cnf,
            Torus(DIMS),
            heuristic=heuristic,
            simplify="single",
            seed=preset.seed + i,
            max_steps=preset.max_steps,
        )
        for heuristic in HEURISTICS
        for i, cnf in enumerate(problems)
    ]
    outcomes = solve_sat_tasks(tasks, jobs=jobs)
    n = len(problems)
    rows = []
    for j, heuristic in enumerate(HEURISTICS):
        branches = []
        for cnf in problems:
            seq = dpll_solve(cnf, heuristic=heuristic)
            assert seq.satisfiable
            branches.append(seq.stats.branches)
        outs = outcomes[j * n : (j + 1) * n]
        assert all(o.verified for o in outs)
        rows.append(
            {
                "heuristic": heuristic,
                "seq_branches": sum(branches) / n,
                "dist_ct": sum(o.computation_time for o in outs) / n,
            }
        )
    return rows


def test_bench_heuristics(benchmark, preset, emit):
    rows = benchmark.pedantic(
        run_heuristic_sweep, args=(preset,), rounds=1, iterations=1
    )
    emit(format_table(
        ["heuristic", "sequential branches", "distributed ct"],
        [
            [r["heuristic"], round(r["seq_branches"], 1), round(r["dist_ct"], 1)]
            for r in rows
        ],
        title="ABL6 — branching heuristic sweep (Listing-4 solver)",
    ))
    # every heuristic solved every problem correctly (asserted inline);
    # informed heuristics should not lose badly to naive first-literal
    by = {r["heuristic"]: r for r in rows}
    assert by["max_occurrence"]["seq_branches"] <= 3 * by["first"]["seq_branches"]
    assert all(r["dist_ct"] > 0 for r in rows)
