"""ABL1 — status-overhead ablation (paper §V-D prose).

The paper attributes adaptive mapping's cost on small machines to its
under-the-hood status machinery.  This bench sweeps the explicit-status
broadcast threshold on a small (saturated) and a large (unsaturated) 2D
torus and shows:

* more status traffic (lower threshold) monotonically inflates message
  counts on both machines;
* the *relative* slowdown from the chattiest setting is worse on the small
  machine — the mechanism behind Figure 4's "adaptive mapping had a
  negative impact ... for smaller topologies".
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, sat_suite
from repro.parallel import sat_cell, solve_sat_tasks
from repro.topology import Torus

THRESHOLDS = (None, 32, 16, 8, 4)
SMALL_DIMS = (4, 4)
LARGE_DIMS = (22, 22)


def run_status_sweep(preset, jobs=None):
    problems = sat_suite(preset)
    grid = [
        (dims, threshold)
        for dims in (SMALL_DIMS, LARGE_DIMS)
        for threshold in THRESHOLDS
    ]
    tasks = [
        sat_cell(
            cnf,
            Torus(dims),
            mapper="lbn",
            status=threshold,
            simplify="none",
            seed=preset.seed + i,
            max_steps=preset.max_steps,
        )
        for dims, threshold in grid
        for i, cnf in enumerate(problems)
    ]
    outcomes = solve_sat_tasks(tasks, jobs=jobs)
    n = len(problems)
    table = {dims: [] for dims in (SMALL_DIMS, LARGE_DIMS)}
    for j, (dims, threshold) in enumerate(grid):
        outs = outcomes[j * n : (j + 1) * n]
        table[dims].append(
            {
                "threshold": "off" if threshold is None else threshold,
                "mean_ct": sum(o.computation_time for o in outs) / n,
                "mean_sent": sum(o.sent_total for o in outs) / n,
            }
        )
    return table


def test_bench_status_overhead(benchmark, preset, emit):
    table = benchmark.pedantic(
        run_status_sweep, args=(preset,), rounds=1, iterations=1
    )
    for dims, rows in table.items():
        emit(format_table(
            ["status threshold", "mean computation time", "mean msgs"],
            [
                [r["threshold"], round(r["mean_ct"], 1), round(r["mean_sent"])]
                for r in rows
            ],
            title=f"ABL1 — LBN status-overhead sweep on torus {dims}",
        ))
    for dims, rows in table.items():
        sents = [r["mean_sent"] for r in rows]
        assert sents == sorted(sents), f"{dims}: status traffic not monotone"
    small, large = table[SMALL_DIMS], table[LARGE_DIMS]
    # chattiest config slows the saturated small machine outright ...
    assert small[-1]["mean_ct"] > small[0]["mean_ct"]
    # ... and its *relative* cost exceeds the large machine's
    small_penalty = small[-1]["mean_ct"] / small[0]["mean_ct"]
    large_penalty = large[-1]["mean_ct"] / large[0]["mean_ct"]
    assert small_penalty > large_penalty, (
        f"status overhead should bite hardest when saturated "
        f"(small x{small_penalty:.2f} vs large x{large_penalty:.2f})"
    )
