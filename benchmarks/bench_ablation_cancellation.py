"""ABL4 — speculative-subtree cancellation (paper §IV-C prose).

The paper's choice mechanism merely *ignores* losing evaluations; this
repo's layer 4 can optionally propagate cancellations.  The bench measures
the drain-time and traffic effect on the SAT suite.  Cancels travel at the
same one-hop-per-step speed as the work frontier, so the win is in drain
time and suppressed replies rather than prevented invocations.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, sat_suite
from repro.parallel import sat_cell, solve_sat_tasks
from repro.topology import Torus

DIMS = (10, 10)
CONFIGS = (("ignore (paper)", False), ("cancel", True))


def run_cancellation_sweep(preset, jobs=None):
    problems = sat_suite(preset)
    tasks = [
        sat_cell(
            cnf,
            Torus(DIMS),
            cancellation=cancellation,
            simplify="none",
            seed=preset.seed + i,
            max_steps=preset.max_steps,
        )
        for _, cancellation in CONFIGS
        for i, cnf in enumerate(problems)
    ]
    outcomes = solve_sat_tasks(tasks, jobs=jobs)
    n = len(problems)
    rows = []
    for j, (label, _) in enumerate(CONFIGS):
        outs = outcomes[j * n : (j + 1) * n]
        assert all(o.verified for o in outs)
        rows.append(
            {
                "config": label,
                "ct": sum(o.computation_time for o in outs) / n,
                "sent": sum(o.sent_total for o in outs) / n,
                "completions": sum(o.completions for o in outs) / n,
            }
        )
    return rows


def test_bench_cancellation(benchmark, preset, emit):
    rows = benchmark.pedantic(
        run_cancellation_sweep, args=(preset,), rounds=1, iterations=1
    )
    emit(format_table(
        ["config", "mean drain time", "mean msgs", "mean completions"],
        [
            [r["config"], round(r["ct"], 1), round(r["sent"]), round(r["completions"])]
            for r in rows
        ],
        title="ABL4 — choice losers: ignored vs cancelled (100-core torus)",
    ))
    ignore, cancel = rows[0], rows[1]
    # cancellation suppresses replies of abandoned subtrees
    assert cancel["completions"] < ignore["completions"]
    # and never slows the drain
    assert cancel["ct"] <= ignore["ct"] * 1.02
