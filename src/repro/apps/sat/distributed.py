"""The distributed DPLL solver — the paper's Listing 4, on the full stack.

The solver is a layer-5 generator function.  Each invocation simplifies its
sub-problem (unit propagation + pure literals), branches on a heuristically
chosen literal and delegates both polarities as concurrent subcalls using
the non-deterministic choice mechanism — "if a solution to one of the
sub-problems is found, the application will resume execution without
waiting for other result" (§V-B).

Result convention: a satisfying (partial) assignment ``dict`` for SAT,
``None`` for UNSAT — so the choice predicate is simply
:func:`is_sat`.  Sub-problems carry their accumulated assignment, letting
the root recover a checkable model (a detail the paper's SAT/UNSAT-only
listing omits).
"""

from __future__ import annotations

import random
from typing import Any, Dict, NamedTuple, Optional, Tuple

from ...errors import ApplicationError
from ...recursion import Call, Choice, Result, Sync
from ...telemetry.probe import probe, probe_enabled
from .cnf import CNF
from .dpll import assign_pures, propagate_units
from .heuristics import Heuristic, make_heuristic, require_occurring

__all__ = [
    "SatProblem",
    "is_sat",
    "sat_content_size",
    "make_solve_sat",
    "solve_sat",
]


class SatProblem(NamedTuple):
    """A sub-problem travelling between nodes: formula + assignment so far."""

    cnf: CNF
    assignment: Tuple[Tuple[int, bool], ...] = ()

    def extend(self, var: int, value: bool) -> "SatProblem":
        """Sub-problem with one more assigned variable (cnf unchanged)."""
        return SatProblem(self.cnf, self.assignment + ((var, value),))

    def as_dict(self) -> Dict[int, bool]:
        """The accumulated assignment as a dict."""
        return dict(self.assignment)


def is_sat(result: Any) -> bool:
    """The paper's ``is_SAT`` choice predicate: a model means SAT."""
    return result is not None


def sat_content_size(content: Any) -> int:
    """Wire-size model for SAT payloads (bandwidth accounting).

    A :class:`SatProblem` costs one word per literal plus one per
    accumulated assignment entry plus a small header; a returned model
    costs one word per assigned variable; UNSAT replies cost one word.
    Used with :func:`repro.netsim.make_envelope_sizer`.
    """
    if isinstance(content, SatProblem):
        return 2 + content.cnf.num_literals + len(content.assignment)
    if isinstance(content, CNF):
        return 2 + content.num_literals
    if isinstance(content, dict):
        return 1 + len(content)
    return 1


def make_solve_sat(
    heuristic: "Heuristic | str" = "max_occurrence",
    rng: Optional[random.Random] = None,
    hint_mode: Optional[str] = None,
    simplify: str = "single",
):
    """Build the Listing-4 generator function with a fixed heuristic.

    Parameters
    ----------
    heuristic:
        Branching heuristic (callable or registry name) — the paper's
        "algorithm-independent heuristic".
    rng:
        Seeded stream for the ``"random"`` heuristic.
    hint_mode:
        Cross-layer size hint attached to each subcall (§III-B3):
        ``None`` (no hints), ``"clauses"`` (remaining clause count) or
        ``"vars"`` (remaining free-variable count).
    simplify:
        Per-node simplification depth, the solver's work/communication
        knob (ablated in the benches):

        * ``"single"`` (default) — the one sweep of unit propagation +
          pure literals that the paper's Listing 4 spells out, deferring
          follow-on units to the child invocations;
        * ``"fixpoint"`` — simplify exhaustively before branching
          (maximum local computation, smallest search tree);
        * ``"none"`` — branch immediately with only the terminal checks
          (maximum unfolding).  This mode reproduces the *scale* of the
          paper's published traces — its Figure 5 peaks near 250 queued
          messages over ~200 steps on a 196-core 2D torus, which matches
          this mode and is an order of magnitude more work than Listing 4
          with effective propagation produces on uf20-91 (see
          EXPERIMENTS.md, calibration note).
    """
    if isinstance(heuristic, str):
        heuristic = make_heuristic(heuristic, rng)
    if hint_mode not in (None, "clauses", "vars"):
        raise ApplicationError(f"unknown hint_mode {hint_mode!r}")
    if simplify not in ("none", "single", "fixpoint"):
        raise ApplicationError(f"unknown simplify mode {simplify!r}")
    fixpoint = simplify == "fixpoint"
    no_simplify = simplify == "none"

    def subcall_hint(cnf: CNF) -> Optional[float]:
        if hint_mode == "clauses":
            return float(cnf.num_clauses)
        if hint_mode == "vars":
            return float(len(cnf.variables()))
        return None

    def solve_sat(problem: "SatProblem | CNF"):
        """Paper Listing 4: the DPLL step executed at each node."""
        if isinstance(problem, CNF):
            problem = SatProblem(problem)
        cnf, assignment = problem
        # lines 2-5: terminal checks
        if cnf.is_consistent:
            yield Result(dict(assignment))
            return
        if cnf.has_empty_clause:
            if probe_enabled():
                probe("dpll.backtrack", depth=len(assignment), reason="empty_clause")
            yield Result(None)
            return
        # lines 6-8: unit propagation / lines 9-11: pure literal assignment
        if not no_simplify:
            model = dict(assignment)
            cnf = propagate_units(cnf, model, fixpoint=fixpoint)
            if not cnf.has_empty_clause:
                cnf = assign_pures(cnf, model)
            # simplification may already decide the sub-problem
            if cnf.has_empty_clause:
                if probe_enabled():
                    probe("dpll.backtrack", depth=len(model), reason="conflict")
                yield Result(None)
                return
            if cnf.is_consistent:
                yield Result(model)
                return
            assignment = tuple(model.items())
        # lines 12-14: branch on a selected literal
        lit = heuristic(cnf)
        require_occurring(cnf, lit)
        var, value = (lit, True) if lit > 0 else (-lit, False)
        if probe_enabled():
            probe(
                "dpll.branch",
                var=var,
                depth=len(assignment),
                clauses=cnf.num_clauses,
            )
        sub1 = SatProblem(cnf.assign(lit), assignment + ((var, value),))
        sub2 = SatProblem(cnf.assign(-lit), assignment + ((var, not value),))
        # line 15: concurrent evaluation with non-deterministic choice
        yield Choice(
            is_sat,
            Call(sub1, hint=subcall_hint(sub1.cnf)),
            Call(sub2, hint=subcall_hint(sub2.cnf)),
        )
        # lines 16-17: first valid (SAT) evaluation, else None (UNSAT)
        result = yield Sync()
        yield Result(result)

    return solve_sat


#: the default solver (max-occurrence heuristic, no hints)
solve_sat = make_solve_sat()
