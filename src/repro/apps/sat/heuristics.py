"""Branching heuristics for DPLL (paper §V-B).

The paper selects the branching variable "using an algorithm-independent
heuristic" without naming one; this module provides the classic candidates,
all deterministic given their inputs (the random heuristic takes a seeded
stream), so whole simulations stay reproducible.

A heuristic is a function ``(CNF) -> Literal`` choosing the literal to try
``True`` first; the solver then branches on both polarities.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, Optional

from ...errors import ApplicationError
from .cnf import CNF, Literal, var_of

__all__ = [
    "Heuristic",
    "first_literal",
    "max_occurrence",
    "jeroslow_wang",
    "moms",
    "make_random_heuristic",
    "make_heuristic",
    "HEURISTIC_NAMES",
]

Heuristic = Callable[[CNF], Literal]


_EMPTY = "cannot select a literal from an empty formula"


def _require_literals(cnf: CNF) -> None:
    if not cnf.literals():
        raise ApplicationError(_EMPTY)


def require_occurring(cnf: CNF, lit: Literal) -> None:
    """Reject a branching literal whose variable is gone from ``cnf``."""
    if not (cnf.occurs(lit) or cnf.occurs(-lit)):
        raise ApplicationError(
            f"heuristic chose literal {lit}, whose variable does not occur "
            "in the formula (both children would equal their parent)"
        )


def first_literal(cnf: CNF) -> Literal:
    """First literal of the first non-empty clause (the naive choice)."""
    for clause in cnf.clauses:
        if clause:
            return clause[0]
    raise ApplicationError(_EMPTY)


def max_occurrence(cnf: CNF) -> Literal:
    """The literal occurring in the most clauses (ties: smallest var, then
    positive polarity).  A solid general-purpose default."""
    table = cnf._table
    if table.repeats:
        # a literal repeated inside a clause counts twice: only the
        # occurrence index sees that
        _require_literals(cnf)
        # (count, -var, literal) orders exactly as (count, -var, positive first)
        return max([(len(where), -abs(l), l) for l, where in cnf.occurrences().items()])[2]
    # the key (count, -var, literal), counted on the bitmasks: variables
    # come largest first and -var before +var, so ">=" leaves the winner
    alive, assigned = cnf._alive, cnf._assigned
    best = most = 0
    for vbit, var, pos, neg in table.by_var:
        if not assigned & vbit:
            neg &= alive
            if neg:
                neg = neg.bit_count()
                if neg >= most:
                    best, most = -var, neg
            pos &= alive
            if pos:
                pos = pos.bit_count()
                if pos >= most:
                    best, most = var, pos
    if not best:
        raise ApplicationError(_EMPTY)
    return best


def jeroslow_wang(cnf: CNF) -> Literal:
    """Jeroslow-Wang: maximise ``J(l) = sum(2**-|c| for clauses c with l)``.

    Weighs short clauses exponentially more — satisfying them quickly
    shrinks the search tree.
    """
    _require_literals(cnf)
    scores: Dict[Literal, float] = {}
    for clause in cnf.clauses:
        if not clause:
            continue
        w = 2.0 ** (-len(clause))
        for l in clause:
            scores[l] = scores.get(l, 0.0) + w
    return max([(score, -abs(l), l) for l, score in scores.items()])[2]


def moms(cnf: CNF) -> Literal:
    """Maximum Occurrences in clauses of Minimum Size."""
    _require_literals(cnf)
    min_len = min((len(c) for c in cnf.clauses if c), default=0)
    if min_len == 0:
        return first_literal(cnf)
    counts: Counter[Literal] = Counter(
        l for c in cnf.clauses if len(c) == min_len for l in c
    )
    return max([(n, -abs(l), l) for l, n in counts.items()])[2]


def make_random_heuristic(rng: random.Random) -> Heuristic:
    """Uniform random literal (seeded) — the no-information baseline."""

    def random_literal(cnf: CNF) -> Literal:
        lits = sorted(cnf.literals(), key=lambda l: (var_of(l), l < 0))
        if not lits:
            raise ApplicationError(_EMPTY)
        return lits[rng.randrange(len(lits))]

    random_literal.__name__ = "random_literal"
    return random_literal


#: names accepted by :func:`make_heuristic`
HEURISTIC_NAMES = ("first", "max_occurrence", "jeroslow_wang", "moms", "random")


def make_heuristic(name: str, rng: Optional[random.Random] = None) -> Heuristic:
    """Build a heuristic by registry name."""
    if name == "first":
        return first_literal
    if name == "max_occurrence":
        return max_occurrence
    if name == "jeroslow_wang":
        return jeroslow_wang
    if name == "moms":
        return moms
    if name == "random":
        if rng is None:
            raise ApplicationError("random heuristic needs a seeded rng")
        return make_random_heuristic(rng)
    raise ApplicationError(
        f"unknown heuristic {name!r}; expected one of {HEURISTIC_NAMES}"
    )
