"""ABL7 — local simplification depth: the work/communication trade-off.

The calibration finding behind the Figure-4/5 defaults (see EXPERIMENTS.md):
how much simplification each node performs before branching controls the
total message volume by an order of magnitude.  ``none`` reproduces the
scale of the paper's published traces; ``fixpoint`` minimises communication
at the cost of local work.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, sat_suite
from repro.parallel import sat_cell, solve_sat_tasks
from repro.topology import Torus

MODES = ("none", "single", "fixpoint")
DIMS = (14, 14)


def run_simplify_sweep(preset, jobs=None):
    problems = sat_suite(preset)
    tasks = [
        sat_cell(
            cnf,
            Torus(DIMS),
            simplify=mode,
            seed=preset.seed + i,
            max_steps=preset.max_steps,
            sat_sizing=True,
        )
        for mode in MODES
        for i, cnf in enumerate(problems)
    ]
    outcomes = solve_sat_tasks(tasks, jobs=jobs)
    n = len(problems)
    rows = []
    for j, mode in enumerate(MODES):
        outs = outcomes[j * n : (j + 1) * n]
        assert all(o.satisfiable and o.verified for o in outs)
        rows.append(
            {
                "mode": mode,
                "ct": sum(o.computation_time for o in outs) / n,
                "sent": sum(o.sent_total for o in outs) / n,
                "traffic": sum(o.traffic_total for o in outs) / n,
                "invocations": sum(o.invocations for o in outs) / n,
            }
        )
    return rows


def test_bench_simplification_depth(benchmark, preset, emit):
    rows = benchmark.pedantic(
        run_simplify_sweep, args=(preset,), rounds=1, iterations=1
    )
    emit(format_table(
        ["simplify", "mean ct", "mean msgs", "mean traffic (words)", "mean invocations"],
        [
            [r["mode"], round(r["ct"], 1), round(r["sent"]),
             round(r["traffic"]), round(r["invocations"])]
            for r in rows
        ],
        title="ABL7 — per-node simplification depth (196-core 2D torus)",
    ))
    by = {r["mode"]: r for r in rows}
    # message volume strictly ordered: none > single > fixpoint
    assert by["none"]["sent"] > by["single"]["sent"] > by["fixpoint"]["sent"]
    # ... and so is bandwidth, by an order of magnitude end to end
    assert by["none"]["traffic"] > by["single"]["traffic"] > by["fixpoint"]["traffic"]
    assert by["none"]["traffic"] > 5 * by["fixpoint"]["traffic"]
    # deeper local simplification also finishes in fewer steps here
    assert by["fixpoint"]["ct"] <= by["none"]["ct"]
