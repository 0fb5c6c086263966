"""CNF formula representation for the SAT solver (paper §V-B).

Literals use DIMACS conventions: variables are positive integers ``1..n``
and a literal is ``+v`` or ``-v``.  A clause is a tuple of literals
(disjunction); a :class:`CNF` is a tuple of clauses (conjunction).

:class:`CNF` is immutable — :meth:`assign` returns a *new* simplified
formula — which is exactly what the distributed solver needs: sub-problems
travel inside messages and must not share mutable state across simulated
nodes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ...errors import ApplicationError

__all__ = ["CNF", "Clause", "Literal", "var_of", "negate"]

Literal = int
Clause = Tuple[Literal, ...]


def var_of(lit: Literal) -> int:
    """Variable index of a literal (``var_of(-3) == 3``)."""
    return -lit if lit < 0 else lit


def negate(lit: Literal) -> Literal:
    """The complementary literal."""
    return -lit


def _check_clause(clause: Iterable[Literal]) -> Clause:
    out = tuple(int(l) for l in clause)
    for l in out:
        if l == 0:
            raise ApplicationError("0 is not a valid literal (DIMACS terminator)")
    return out


class CNF:
    """An immutable CNF formula.

    Parameters
    ----------
    clauses:
        Iterable of literal iterables.  Order is preserved (the branching
        heuristics and the paper's listing iterate clauses in order).
    num_vars:
        Declared variable count; inferred from the largest variable when
        omitted.
    """

    __slots__ = ("clauses", "num_vars", "_lit_cache")

    def __init__(
        self, clauses: Iterable[Iterable[Literal]], num_vars: Optional[int] = None
    ) -> None:
        cs: Tuple[Clause, ...] = tuple(_check_clause(c) for c in clauses)
        max_var = max((var_of(l) for c in cs for l in c), default=0)
        if num_vars is None:
            num_vars = max_var
        elif num_vars < max_var:
            raise ApplicationError(
                f"declared num_vars={num_vars} but clause mentions variable {max_var}"
            )
        object.__setattr__(self, "clauses", cs)
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(self, "_lit_cache", None)

    # CNF is conceptually frozen; block accidental mutation.
    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("CNF is immutable")

    # The frozen __setattr__ breaks pickle's default slot restoration, so
    # spell the protocol out; formulas must cross process boundaries when
    # sweeps fan out over a worker pool (repro.parallel).
    def __getstate__(self) -> Tuple[Tuple[Clause, ...], int]:
        return (self.clauses, self.num_vars)

    def __setstate__(self, state: Tuple[Tuple[Clause, ...], int]) -> None:
        clauses, num_vars = state
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_lit_cache", None)

    @classmethod
    def _from_trusted(
        cls, clauses: Tuple[Clause, ...], num_vars: int
    ) -> "CNF":
        """Internal fast constructor for already-validated clause tuples.

        :meth:`assign` runs in the solver's innermost loop and only ever
        *removes* literals/clauses, so revalidating every clause (the
        dominant cost of public construction, per profiling) is skipped.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "clauses", clauses)
        object.__setattr__(obj, "num_vars", num_vars)
        object.__setattr__(obj, "_lit_cache", None)
        return obj

    # -- basic structure ---------------------------------------------------

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CNF)
            and self.clauses == other.clauses
            and self.num_vars == other.num_vars
        )

    def __hash__(self) -> int:
        return hash((self.clauses, self.num_vars))

    def occurrences(self) -> Dict[Literal, List[int]]:
        """Literal -> ascending positions of the clauses containing it.

        Built in one pass and cached (read it, never mutate it); a literal
        repeated inside a clause repeats the position, so ``len`` counts it.
        """
        index = self._lit_cache
        if index is None:
            index = {}
            get = index.get
            for pos, clause in enumerate(self.clauses):
                for l in clause:
                    where = get(l)
                    if where is None:
                        index[l] = [pos]
                    else:
                        where.append(pos)
            object.__setattr__(self, "_lit_cache", index)
        return index

    def literals(self) -> FrozenSet[Literal]:
        """The set of literals appearing in the formula."""
        return frozenset(self.occurrences())

    def variables(self) -> FrozenSet[int]:
        """Variables appearing in the formula."""
        return frozenset(var_of(l) for l in self.occurrences())

    # -- solver predicates -------------------------------------------------

    @property
    def is_consistent(self) -> bool:
        """Paper's ``consistent(problem)``: no clauses remain → satisfied."""
        return not self.clauses

    @property
    def has_empty_clause(self) -> bool:
        """Paper's ``exist_empty_clause``: some clause is unsatisfiable."""
        return () in self.clauses

    def unit_literals(self) -> List[Literal]:
        """Literals forced by unit clauses, in clause order, deduplicated.

        When contradictory units (``l`` and ``-l``) are both present, both
        are reported — :meth:`assign` of one then produces the empty clause
        from the other, surfacing the conflict naturally.
        """
        seen: set[Literal] = set()
        out: List[Literal] = []
        for c in self.clauses:
            if len(c) == 1 and c[0] not in seen:
                seen.add(c[0])
                out.append(c[0])
        return out

    def pure_literals(self) -> List[Literal]:
        """Literals that occur in only one polarity, ascending by variable."""
        occ = self.occurrences()
        return sorted(
            (l for l in occ if -l not in occ), key=lambda l: (var_of(l), l < 0)
        )

    # -- transformation ------------------------------------------------------

    def assign(self, lit: Literal) -> "CNF":
        """Return the formula simplified under ``lit = true``.

        Clauses containing ``lit`` are satisfied (dropped); occurrences of
        ``-lit`` are falsified (removed, possibly leaving an empty clause).
        With :meth:`occurrences` already cached only the clauses mentioning
        the variable are touched; a formula assigned once is scanned instead.
        """
        if lit == 0:
            raise ApplicationError("cannot assign literal 0")
        neg = -lit
        occ = self._lit_cache
        if occ is None:
            new_clauses: List[Clause] = []
            for c in self.clauses:
                if lit in c:
                    continue
                if neg in c:
                    new_clauses.append(tuple([l for l in c if l != neg]))
                else:
                    new_clauses.append(c)
        else:
            new_clauses = list(self.clauses)
            for pos in occ.get(neg, ()):
                new_clauses[pos] = tuple([l for l in new_clauses[pos] if l != neg])
            last = -1
            for pos in reversed(occ.get(lit, ())):  # ascending, repeats adjacent
                if pos != last:
                    del new_clauses[pos]
                    last = pos
        return CNF._from_trusted(tuple(new_clauses), self.num_vars)

    def assign_all(self, lits: Sequence[Literal]) -> "CNF":
        """Apply :meth:`assign` for each literal in order."""
        cnf = self
        for lit in lits:
            cnf = cnf.assign(lit)
        return cnf

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, assignment: Dict[int, bool]) -> Optional[bool]:
        """Truth value under a (possibly partial) assignment.

        Returns True/False when determined, ``None`` when the assignment
        leaves the formula undecided.
        """
        undecided = False
        for c in self.clauses:
            clause_true = False
            clause_open = False
            for l in c:
                v = assignment.get(var_of(l))
                if v is None:
                    clause_open = True
                elif v == (l > 0):
                    clause_true = True
                    break
            if clause_true:
                continue
            if clause_open:
                undecided = True
            else:
                return False
        return None if undecided else True

    def is_satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """True iff the assignment makes every clause true."""
        return self.evaluate(assignment) is True

    # -- misc ----------------------------------------------------------------

    def to_params(self) -> Dict[str, object]:
        """This formula as JSON-safe ``sat`` workload params.

        The explicit-formula form of ``RunSpec.workload_params``; the
        inverse of :func:`repro.engine.cnf_of`.
        """
        return {
            "clauses": [list(c) for c in self.clauses],
            "num_vars": self.num_vars,
        }

    def stats(self) -> Dict[str, int]:
        """Structural counts used in reports and hints."""
        return {
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "num_literals": sum(len(c) for c in self.clauses),
            "free_vars": len(self.variables()),
        }

    def __repr__(self) -> str:
        return f"CNF({self.num_clauses} clauses, {self.num_vars} vars)"
