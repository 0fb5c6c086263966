"""ABL8 — work sharing (paper Figure 2's layer-3 "work sharing/stealing").

An overloaded node (deep inbox) pushes newly arriving work onward instead
of executing it.  The sweep over sharing thresholds on static round-robin
mapping shows the classic diffusion trade-off: aggressive sharing thrashes
(every detour is an extra message and an extra step), a conservative
threshold recovers part of the adaptive mapper's benefit without any
status machinery, and "off" is the paper's baseline.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, sat_suite
from repro.parallel import sat_cell, solve_sat_tasks
from repro.topology import Torus

THRESHOLDS = (None, 2, 4, 8, 16)
DIMS = (14, 14)


def run_sharing_sweep(preset, jobs=None):
    problems = sat_suite(preset)
    tasks = [
        sat_cell(
            cnf,
            Torus(DIMS),
            mapper="rr",
            simplify="none",
            seed=preset.seed + i,
            max_steps=preset.max_steps,
            share_threshold=threshold,
        )
        for threshold in THRESHOLDS
        for i, cnf in enumerate(problems)
    ]
    outcomes = solve_sat_tasks(tasks, jobs=jobs)
    n = len(problems)
    rows = []
    for j, threshold in enumerate(THRESHOLDS):
        outs = outcomes[j * n : (j + 1) * n]
        # all suite problems are satisfiable
        assert all(o.satisfiable for o in outs)
        rows.append(
            {
                "threshold": "off" if threshold is None else threshold,
                "ct": sum(o.computation_time for o in outs) / n,
                "sent": sum(o.sent_total for o in outs) / n,
            }
        )
    return rows


def test_bench_work_sharing(benchmark, preset, emit):
    rows = benchmark.pedantic(
        run_sharing_sweep, args=(preset,), rounds=1, iterations=1
    )
    emit(format_table(
        ["share threshold (inbox depth)", "mean ct", "mean msgs"],
        [[r["threshold"], round(r["ct"], 1), round(r["sent"])] for r in rows],
        title="ABL8 — work sharing on RR mapping (196-core 2D torus)",
    ))
    by = {r["threshold"]: r for r in rows}
    # detours cost messages, monotonically decreasing with the threshold
    sents = [r["sent"] for r in rows[1:]]
    assert sents == sorted(sents, reverse=True)
    assert by[2]["sent"] > by["off"]["sent"]
    # aggressive sharing thrashes outright
    assert by[2]["ct"] > by["off"]["ct"]
    # a conservative threshold stays within 15% of baseline steps
    assert by[16]["ct"] <= 1.15 * by["off"]["ct"]
