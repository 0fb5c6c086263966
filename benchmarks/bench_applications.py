"""Application zoo benchmarks: every layer-5 solver timed end to end.

Times each cell of ``examples/combinatorial_zoo.py`` — SAT, N-queens,
coloring, subset sum, knapsack and TSP on the same 64-core torus with
adaptive mapping — through the engine, verifying every answer against its
sequential reference.  These are conventional pytest-benchmark timings
(many rounds) of the whole stack, complementing the single-shot figure
sweeps.
"""

from __future__ import annotations

import random

import pytest

from combinatorial_zoo import run_cell, zoo_cells
from repro.workloads import WORKLOADS
from zoo import knapsack

CELLS = zoo_cells(random.Random(7))


@pytest.mark.parametrize("cell", CELLS, ids=[cell[0] for cell in CELLS])
def test_bench_app(benchmark, monkeypatch, cell):
    _label, _kind, spec, attachments, check = cell
    monkeypatch.setitem(WORKLOADS, "knapsack", knapsack.WORKLOAD)
    _run, verified = benchmark(run_cell, spec, attachments, check)
    assert verified
