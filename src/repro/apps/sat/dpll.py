"""Sequential DPLL solver — the single-node reference (paper §V-B).

This is the same "barebone implementation of the Davis-Putnam-Logemann-
Loveland algorithm" the paper distributes (Listing 4): unit propagation,
pure-literal assignment, heuristic branching, no learning or
non-chronological backtracking ("our focus here is [mapping and topology],
to this end we choose a basic implementation of DPLL").

The sequential version serves three purposes:

* Figure 4's sequential baseline, and the answer ``repro solve`` and the
  benchmarks check the distributed solver against (the conformance
  fuzzer checks it against :func:`~repro.apps.sat.cdcl.cdcl_solve`,
  which shares no formula code with either);
* the satisfiability filter of the benchmark generator (SATLIB's uf20-91
  suite contains satisfiable instances only);
* a workload-size oracle (its statistics estimate problem hardness).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ...declared import Counters
from .cnf import CNF, var_of
from .heuristics import Heuristic, make_heuristic, require_occurring

__all__ = ["SolveStats", "SatResult", "dpll_solve", "propagate_units", "assign_pures"]


class SolveStats(Counters):
    """Search-effort counters for one sequential solve; ``branches`` counts
    recursive branch evaluations (the size of the explored search tree)."""

    __slots__ = STATE = (
        "decisions", "unit_propagations", "pure_assignments", "max_depth", "branches"
    )


class SatResult:
    """Outcome of a solve: satisfiable flag, model (if SAT) and stats."""

    __slots__ = ("satisfiable", "assignment", "stats")

    def __init__(
        self,
        satisfiable: bool,
        assignment: Optional[Dict[int, bool]],
        stats: SolveStats,
    ) -> None:
        self.satisfiable = satisfiable
        self.assignment = assignment
        self.stats = stats

    def __bool__(self) -> bool:
        return self.satisfiable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "SAT" if self.satisfiable else "UNSAT"
        return f"SatResult({tag}, decisions={self.stats.decisions})"


def propagate_units(
    cnf: CNF,
    assignment: Dict[int, bool],
    stats: Optional[SolveStats] = None,
    fixpoint: bool = True,
) -> CNF:
    """Unit propagation (paper Listing 4 lines 6-8).

    Extends ``assignment`` in place with every forced literal and returns
    the simplified formula.  Stops early when an empty clause appears.

    With ``fixpoint`` (default) propagation repeats until no unit clauses
    remain; with ``fixpoint=False`` it performs the single sweep of the
    paper's listing (``for clause in problem[clauses]: if unit_clause ...``),
    leaving newly created units for the next recursion level — which is
    what shapes the deep unfolding the paper profiles.
    """
    while True:
        units = cnf.unit_literals()
        if not units:
            return cnf
        for lit in units:
            cnf = cnf.assign(lit)
            assignment[var_of(lit)] = lit > 0
            if stats is not None:
                stats.unit_propagations += 1
            if cnf.has_empty_clause:
                return cnf
        if not fixpoint:
            return cnf


def assign_pures(
    cnf: CNF, assignment: Dict[int, bool], stats: Optional[SolveStats] = None
) -> CNF:
    """Assign pure literals (paper Listing 4 lines 9-11), one sweep."""
    for lit in cnf.pure_literals():
        # purity can change as clauses vanish; re-check before each assign
        if cnf.occurs(lit) and not cnf.occurs(-lit):
            cnf = cnf.assign(lit)
            assignment[var_of(lit)] = lit > 0
            if stats is not None:
                stats.pure_assignments += 1
    return cnf


def dpll_solve(
    cnf: CNF,
    heuristic: "Heuristic | str" = "max_occurrence",
    rng: Optional[random.Random] = None,
    max_branches: Optional[int] = None,
) -> SatResult:
    """Solve ``cnf`` with the barebone DPLL of the paper's Listing 4.

    Parameters
    ----------
    heuristic:
        Branching heuristic (callable or registry name).
    rng:
        Seeded stream, required by the ``"random"`` heuristic.
    max_branches:
        Optional search-effort cap; exceeded → :class:`RecursionError`
        style abort via :class:`ApplicationError` is *not* raised — instead
        the cap raises ``RuntimeError`` to make runaway searches loud.
    """
    if isinstance(heuristic, str):
        heuristic = make_heuristic(heuristic, rng)
    stats = SolveStats()

    def solve(
        problem: CNF, assignment: Dict[int, bool], depth: int
    ) -> Optional[Dict[int, bool]]:
        stats.branches += 1
        if max_branches is not None and stats.branches > max_branches:
            raise RuntimeError(f"DPLL exceeded max_branches={max_branches}")
        stats.max_depth = max(stats.max_depth, depth)
        problem = propagate_units(problem, assignment, stats)
        if problem.has_empty_clause:
            return None
        problem = assign_pures(problem, assignment, stats)
        if problem.is_consistent:
            return assignment
        lit = heuristic(problem)
        require_occurring(problem, lit)
        stats.decisions += 1
        for chosen in (lit, -lit):
            trial = dict(assignment)
            trial[var_of(chosen)] = chosen > 0
            model = solve(problem.assign(chosen), trial, depth + 1)
            if model is not None:
                return model
        return None

    model = solve(cnf, {}, 0)
    if model is None:
        return SatResult(False, None, stats)
    return SatResult(True, model, stats)
