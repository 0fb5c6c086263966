"""CDCL — the modern-solver contrast to the paper's barebone DPLL (§V-B).

"In practice, many state-of-the-art SAT solvers implement additional
heuristics such as conflict-driven learning and non-chronological
backtracking to prune the search space.  However, our focus here is ...
a basic implementation of DPLL."

This module implements the techniques the paper deliberately set aside —
conflict-driven clause learning with first-UIP analysis, non-chronological
backjumping, VSIDS-style activity ordering and Luby restarts — as a
*sequential* reference, so the ablation bench can quantify how much search
the barebone distributed solver performs compared to a modern one on the
same instances.  It is also the SAT reference of ``repro.workloads``
(``repro fuzz``): it keeps its own trail over plain clause lists and never
calls :meth:`CNF.assign`, so a fault in the formula code that the
distributed solver and DPLL share cannot make it agree with them.

The implementation favours clarity over raw speed (counter-based
propagation rather than watched literals); uf20-91-scale instances solve in
microseconds either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...declared import Counters
from ...errors import ApplicationError
from .cnf import CNF, var_of

__all__ = ["CdclStats", "CdclResult", "cdcl_solve", "luby"]


def luby(i: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 1-indexed."""
    if i < 1:
        raise ApplicationError(f"luby is 1-indexed, got {i}")
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1  # tail recursion on i - 2**(k-1) + 1


class CdclStats(Counters):
    """Search-effort counters for one CDCL solve; ``max_backjump`` is the
    largest number of levels jumped over in one backjump."""

    __slots__ = STATE = ("decisions", "propagations", "conflicts", "learned_clauses",
                         "restarts", "max_backjump")


class CdclResult:
    """Outcome of a CDCL solve."""

    __slots__ = ("satisfiable", "assignment", "stats")

    def __init__(self, satisfiable: bool, assignment: Optional[Dict[int, bool]],
                 stats: CdclStats) -> None:
        self.satisfiable = satisfiable
        self.assignment = assignment
        self.stats = stats

    def __bool__(self) -> bool:
        return self.satisfiable


class _Solver:
    """Internal CDCL state machine."""

    def __init__(self, cnf: CNF, restart_base: int) -> None:
        self.num_vars = cnf.num_vars
        self.clauses: List[List[int]] = [list(c) for c in cnf.clauses]
        self.restart_base = restart_base
        #: var -> bool (current partial assignment)
        self.values: Dict[int, bool] = {}
        #: var -> decision level it was assigned at
        self.level: Dict[int, int] = {}
        #: var -> clause index that implied it (None for decisions)
        self.reason: Dict[int, Optional[int]] = {}
        self.trail: List[int] = []  # assigned literals, in order
        self.decision_level = 0
        #: VSIDS-style activity per variable
        self.activity: Dict[int, float] = {v: 0.0 for v in range(1, cnf.num_vars + 1)}
        self.activity_inc = 1.0
        self.stats = CdclStats()

    # -- literal/clause state ------------------------------------------------

    def lit_value(self, lit: int) -> Optional[bool]:
        v = self.values.get(var_of(lit))
        if v is None:
            return None
        return v == (lit > 0)

    def assign(self, lit: int, reason: Optional[int]) -> None:
        var = var_of(lit)
        self.values[var] = lit > 0
        self.level[var] = self.decision_level
        self.reason[var] = reason
        self.trail.append(lit)

    # -- propagation -----------------------------------------------------------

    def propagate(self) -> Optional[int]:
        """Unit-propagate to fixpoint; return a conflicting clause index."""
        changed = True
        while changed:
            changed = False
            for idx, clause in enumerate(self.clauses):
                unassigned = None
                n_unassigned = 0
                satisfied = False
                for lit in clause:
                    val = self.lit_value(lit)
                    if val is True:
                        satisfied = True
                        break
                    if val is None:
                        unassigned = lit
                        n_unassigned += 1
                if satisfied:
                    continue
                if n_unassigned == 0:
                    return idx  # conflict
                if n_unassigned == 1:
                    self.assign(unassigned, idx)
                    self.stats.propagations += 1
                    changed = True
        return None

    # -- conflict analysis (first UIP) -----------------------------------------

    def analyse(self, conflict_idx: int) -> Tuple[List[int], int]:
        """Return (learned clause, backjump level)."""
        self.stats.conflicts += 1
        seen: set[int] = set()
        learned: List[int] = []
        counter = 0  # literals of the current level still to resolve
        clause = list(self.clauses[conflict_idx])
        trail_pos = len(self.trail) - 1
        uip_lit: Optional[int] = None

        while True:
            for lit in clause:
                var = var_of(lit)
                if var in seen or self.level.get(var, 0) == 0:
                    continue
                seen.add(var)
                self.bump(var)
                if self.level[var] == self.decision_level:
                    counter += 1
                else:
                    learned.append(lit)
            # walk the trail backwards to the next marked current-level var
            while trail_pos >= 0 and var_of(self.trail[trail_pos]) not in seen:
                trail_pos -= 1
            assert trail_pos >= 0, "conflict analysis walked off the trail"
            lit = self.trail[trail_pos]
            var = var_of(lit)
            trail_pos -= 1
            counter -= 1
            if counter == 0:
                uip_lit = -lit
                break
            reason_idx = self.reason[var]
            assert reason_idx is not None, "decision reached before UIP"
            clause = [l for l in self.clauses[reason_idx] if var_of(l) != var]
        learned.append(uip_lit)
        if len(learned) == 1:
            return learned, 0
        back_level = max(
            self.level[var_of(l)] for l in learned if l != uip_lit
        )
        return learned, back_level

    def bump(self, var: int) -> None:
        self.activity[var] += self.activity_inc
        if self.activity[var] > 1e100:
            for v in self.activity:
                self.activity[v] *= 1e-100
            self.activity_inc *= 1e-100

    def backjump(self, level: int) -> None:
        self.stats.max_backjump = max(
            self.stats.max_backjump, self.decision_level - level
        )
        while self.trail and self.level[var_of(self.trail[-1])] > level:
            lit = self.trail.pop()
            var = var_of(lit)
            del self.values[var]
            del self.level[var]
            del self.reason[var]
        self.decision_level = level

    def pick_branch_literal(self) -> int:
        best_var = max(
            (v for v in range(1, self.num_vars + 1) if v not in self.values),
            key=lambda v: (self.activity[v], -v),
        )
        return best_var  # positive phase first

    # -- main loop ----------------------------------------------------------------

    def solve(self) -> CdclResult:
        if any(not c for c in self.clauses):
            return CdclResult(False, None, self.stats)
        conflicts_since_restart = 0
        restart_count = 1
        limit = self.restart_base * luby(restart_count)
        while True:
            conflict = self.propagate()
            if conflict is not None:
                if self.decision_level == 0:
                    return CdclResult(False, None, self.stats)
                learned, back_level = self.analyse(conflict)
                self.backjump(back_level)
                self.clauses.append(learned)
                self.stats.learned_clauses += 1
                self.activity_inc *= 1.05
                conflicts_since_restart += 1
                if conflicts_since_restart >= limit:
                    self.stats.restarts += 1
                    restart_count += 1
                    limit = self.restart_base * luby(restart_count)
                    conflicts_since_restart = 0
                    self.backjump(0)
                continue
            if len(self.values) == self.num_vars:
                return CdclResult(True, dict(self.values), self.stats)
            self.decision_level += 1
            self.stats.decisions += 1
            self.assign(self.pick_branch_literal(), None)


def cdcl_solve(cnf: CNF, restart_base: int = 64) -> CdclResult:
    """Solve ``cnf`` with conflict-driven clause learning.

    Implements the §V-B "state-of-the-art" feature set the paper's solver
    deliberately omits: 1-UIP clause learning, non-chronological
    backjumping, VSIDS activity branching and Luby restarts.  Returns a
    :class:`CdclResult` whose assignment (for SAT) is total.
    """
    if restart_base < 1:
        raise ApplicationError(f"restart_base must be >= 1, got {restart_base}")
    return _Solver(cnf, restart_base).solve()
