"""Smoke tests: every example script runs to completion.

Each example is executed in-process (``runpy``) with a patched ``argv`` so
assertions inside the scripts fire under pytest.  The two figure-sweep
examples are exercised at reduced scale elsewhere (`tests/test_bench.py`);
here we only check their CLI wiring parses.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv=()) -> None:
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "layers_tour.py",
        "sat_solver.py",
        "scalability_sweep.py",
        "unfolding_heatmap.py",
        "nqueens_mesh.py",
        "combinatorial_zoo.py",
        "topology_playground.py",
    } <= names


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "sum(1..10) = 55" in out
    assert "fib(12) = 144" in out


def test_layers_tour(capsys):
    run_example("layers_tour.py")
    out = capsys.readouterr().out
    assert "Listing 1" in out and "Listing 2" in out and "Listing 3" in out
    assert "result         : 55" in out


def test_sat_solver_generated(capsys):
    run_example("sat_solver.py", ["--cores", "36", "--mapper", "rr", "--seed", "4"])
    out = capsys.readouterr().out
    assert "SAT" in out
    assert "computation time" in out


def test_sat_solver_dimacs_file(tmp_path, capsys):
    path = tmp_path / "toy.cnf"
    path.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    run_example("sat_solver.py", [str(path), "--cores", "16"])
    assert "verified model" in capsys.readouterr().out


def test_nqueens_mesh(capsys):
    run_example("nqueens_mesh.py", ["--n", "6", "--cube-dim", "4"])
    out = capsys.readouterr().out
    assert "solved 6-queens" in out
    assert "Q" in out


def test_combinatorial_zoo(capsys):
    from repro.workloads import WORKLOADS

    before = set(WORKLOADS)
    run_example("combinatorial_zoo.py")
    assert set(WORKLOADS) == before  # the process-wide table, as found
    out = capsys.readouterr().out
    assert "combinatorial zoo" in out
    assert "knapsack (11) | optimization" in out
    assert "FAIL" not in out


def test_unfolding_heatmap_small(capsys):
    run_example("unfolding_heatmap.py", ["--problems", "2"])
    out = capsys.readouterr().out
    assert "Least Busy Neighbour" in out
    assert "unfolds over more of the mesh" in out


def test_topology_playground(capsys):
    run_example("topology_playground.py")
    out = capsys.readouterr().out
    assert "one workload, many machines" in out
    assert "virtualised tree-on-hypercube" in out


def test_scalability_sweep_help_only(capsys):
    # full sweep is covered by the bench suite; here just the CLI contract
    with pytest.raises(SystemExit) as exc:
        run_example("scalability_sweep.py", ["--help"])
    assert exc.value.code == 0
    assert "Figure 4" in capsys.readouterr().out
