"""ABL5 — topology zoo at matched core counts (paper §II-A prose).

The paper motivates hypercubes by their graph properties (log diameter,
node symmetry, embeddability).  This bench runs the SAT suite on a
hypercube, tori, a grid (no wrap links), a ring and the fully connected
baseline at matched core counts.  The measured lesson matches Figure 4's
saturation regime: when the workload saturates the machine, everything in
the cube family performs alike (throughput-bound); only genuinely poor
connectivity (ring; grid corners) loses, and rich connectivity only pays
off once machines outgrow the workload.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table, sat_suite
from repro.parallel import sat_cell, solve_sat_tasks
from repro.topology import CubeConnectedCycles, FullyConnected, Grid, Hypercube, Ring, Torus

MACHINES = [
    ("hypercube(6)", Hypercube(6)),          # 64 cores, diameter 6, degree 6
    ("ccc(4)", CubeConnectedCycles(4)),      # 64 cores, degree 3
    ("torus 8x8", Torus((8, 8))),            # 64 cores, diameter 8
    ("torus 4x4x4", Torus((4, 4, 4))),       # 64 cores, diameter 6
    ("grid 8x8", Grid((8, 8))),              # 64 cores, diameter 14
    ("ring(64)", Ring(64)),                  # 64 cores, diameter 32
    ("full(64)", FullyConnected(64)),        # 64 cores, diameter 1
]


def run_topology_sweep(preset, jobs=None):
    problems = sat_suite(preset)
    tasks = [
        sat_cell(
            cnf,
            topo,
            mapper="random" if topo.kind == "full" else "lbn",
            simplify="none",
            seed=preset.seed + i,
            max_steps=preset.max_steps,
        )
        for _, topo in MACHINES
        for i, cnf in enumerate(problems)
    ]
    outcomes = solve_sat_tasks(tasks, jobs=jobs)
    n = len(problems)
    rows = []
    for j, (label, topo) in enumerate(MACHINES):
        outs = outcomes[j * n : (j + 1) * n]
        rows.append(
            {
                "machine": label,
                "diameter": topo.diameter(),
                "ct": sum(o.computation_time for o in outs) / n,
            }
        )
    return rows


def test_bench_topology_zoo(benchmark, preset, emit):
    rows = benchmark.pedantic(
        run_topology_sweep, args=(preset,), rounds=1, iterations=1
    )
    emit(format_table(
        ["machine (64 cores)", "diameter", "mean computation time"],
        [[r["machine"], r["diameter"], round(r["ct"], 1)] for r in rows],
        title="ABL5 — topology comparison at matched core count",
    ))
    by = {r["machine"]: r["ct"] for r in rows}
    # At 64 cores the suite saturates every machine, so the cube family
    # (hypercube, 2D/3D torus, even fully connected) lands within a narrow
    # band — throughput, not diameter, is the binding constraint ...
    cube_family = [by["hypercube(6)"], by["torus 8x8"], by["torus 4x4x4"], by["full(64)"]]
    assert max(cube_family) <= 1.25 * min(cube_family)
    # bounded-degree CCC stays within 2x of its parent hypercube
    assert by["ccc(4)"] <= 2.0 * by["hypercube(6)"]
    # ... while genuinely poor connectivity still loses badly:
    assert by["ring(64)"] >= 2.0 * by["hypercube(6)"]
    # wrap links matter: the open grid trails the torus of equal size
    assert by["torus 8x8"] <= by["grid 8x8"] * 1.05
