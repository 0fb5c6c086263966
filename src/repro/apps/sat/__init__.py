"""The SAT solving substrate and the paper's distributed DPLL solver (§V).

Public surface:

* :class:`CNF` and DIMACS I/O (:func:`parse_dimacs` / :func:`to_dimacs`).
* Generators: :func:`uniform_random_ksat`, :func:`satisfiable_random_ksat`,
  :func:`planted_random_ksat`, :func:`uf20_91_suite` (the paper's suite).
* Sequential solvers: :func:`dpll_solve` (Figure 4's baseline),
  :func:`cdcl_solve` (the conformance fuzzer's SAT reference: it shares no
  formula code with the distributed solver) and :func:`brute_force_solve`.
* Distributed solver: :func:`make_solve_sat` (Listing 4); run it on a
  machine with ``repro.engine.execute(RunSpec(workload="sat", ...))``.
* Branching heuristics registry: :func:`make_heuristic`.
"""

from .bruteforce import all_models, brute_force_count, brute_force_solve
from .cdcl import CdclResult, CdclStats, cdcl_solve, luby
from .cnf import CNF, Clause, Literal, negate, var_of
from .dimacs import load_dimacs, parse_dimacs, save_dimacs, to_dimacs
from .distributed import (
    SatProblem,
    is_sat,
    make_solve_sat,
    sat_content_size,
    solve_sat,
)
from .dpll import SatResult, SolveStats, assign_pures, dpll_solve, propagate_units
from .generator import (
    UF20_CLAUSES,
    UF20_VARS,
    planted_random_ksat,
    satisfiable_random_ksat,
    uf20_91_suite,
    uniform_random_ksat,
)
from .heuristics import (
    HEURISTIC_NAMES,
    first_literal,
    jeroslow_wang,
    make_heuristic,
    make_random_heuristic,
    max_occurrence,
    moms,
)

__all__ = [
    "CNF",
    "Clause",
    "Literal",
    "var_of",
    "negate",
    "parse_dimacs",
    "to_dimacs",
    "load_dimacs",
    "save_dimacs",
    "uniform_random_ksat",
    "satisfiable_random_ksat",
    "planted_random_ksat",
    "uf20_91_suite",
    "UF20_VARS",
    "UF20_CLAUSES",
    "dpll_solve",
    "SatResult",
    "SolveStats",
    "propagate_units",
    "assign_pures",
    "brute_force_solve",
    "cdcl_solve",
    "CdclResult",
    "CdclStats",
    "luby",
    "brute_force_count",
    "all_models",
    "SatProblem",
    "is_sat",
    "sat_content_size",
    "make_solve_sat",
    "solve_sat",
    "make_heuristic",
    "HEURISTIC_NAMES",
    "first_literal",
    "max_occurrence",
    "jeroslow_wang",
    "moms",
    "make_random_heuristic",
]
