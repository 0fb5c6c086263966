"""ABL2 — problem-specific tuning (paper §III-B2 prose).

"An application that makes a fixed number of recursive subcalls ... has a
predictable unfolding behaviour and may be more efficiently executed by a
static mapping algorithm.  A static mapper does not exhaust the underlying
message transfer infrastructure by exchanging status updates."

The bench pins down that exact trade on a fixed-fan-out workload
(fork-join Fibonacci): static round robin moves the minimum number of
messages, while the adaptive mapper's advantage in steps comes at the
price of status traffic on the interconnect.  On the irregular SAT
workload the adaptive mapper wins outright at this machine size.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, sat_suite
from repro.engine import RunSpec, execute
from repro.parallel import sat_cell, solve_sat_tasks
from repro.topology import Torus

DIMS = (12, 12)
#: (label, mapper, status threshold)
CONFIGS = (
    ("rr (static)", "rr", None),
    ("random (static)", "random", None),
    ("lbn piggyback", "lbn", None),
    ("lbn + status", "lbn", 16),
)


def run_fib_sweep(n=15):
    rows = []
    for label, mapper, status in CONFIGS:
        run = execute(RunSpec(
            workload="fib", workload_params={"n": n},
            topology="torus:" + "x".join(str(d) for d in DIMS),
            mapper=mapper, status=status, seed=1, drain=True,
        ))
        rows.append({"config": label, "ct": run.report.computation_time,
                     "sent": run.report.sent_total, "result": run.result})
    return rows


def run_sat_sweep(preset, jobs=None):
    problems = sat_suite(preset)
    tasks = [
        sat_cell(
            cnf,
            Torus(DIMS),
            mapper=mapper,
            status=status,
            simplify="none",
            seed=preset.seed + i,
            max_steps=preset.max_steps,
        )
        for _, mapper, status in CONFIGS
        for i, cnf in enumerate(problems)
    ]
    outcomes = solve_sat_tasks(tasks, jobs=jobs)
    n = len(problems)
    rows = []
    for j, (label, _, _) in enumerate(CONFIGS):
        outs = outcomes[j * n : (j + 1) * n]
        rows.append({"config": label, "ct": sum(o.computation_time for o in outs) / n})
    return rows


def test_bench_mappers_on_fixed_fanout(benchmark, emit):
    rows = benchmark.pedantic(run_fib_sweep, rounds=1, iterations=1)
    emit(format_table(
        ["config", "computation time", "messages"],
        [[r["config"], r["ct"], r["sent"]] for r in rows],
        title="ABL2a — fib(15) (fixed fan-out) on a 144-core 2D torus",
    ))
    by = {r["config"]: r for r in rows}
    assert all(r["result"] == 610 for r in rows)
    # static mappers move the bare application traffic; adaptive+status
    # inflates the interconnect load — the §III-B2 efficiency argument
    assert by["rr (static)"]["sent"] == by["random (static)"]["sent"]
    assert by["lbn + status"]["sent"] > 1.1 * by["rr (static)"]["sent"]
    # (on this unsaturated machine the extra traffic costs few steps —
    # ABL1 shows it biting once queues saturate; the infrastructure-load
    # argument is the message count above)


def test_bench_mappers_on_irregular_sat(benchmark, preset, emit):
    rows = benchmark.pedantic(run_sat_sweep, args=(preset,), rounds=1, iterations=1)
    emit(format_table(
        ["config", "mean computation time"],
        [[r["config"], round(r["ct"], 1)] for r in rows],
        title="ABL2b — SAT suite (irregular fan-out) on a 144-core 2D torus",
    ))
    by = {r["config"]: r["ct"] for r in rows}
    # adaptive mapping beats static RR on the irregular workload at this size
    assert by["lbn piggyback"] < by["rr (static)"]
