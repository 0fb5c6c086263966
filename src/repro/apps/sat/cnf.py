"""CNF formula representation for the SAT solver (paper §V-B).

Literals use DIMACS conventions: variables are positive integers ``1..n``
and a literal is ``+v`` or ``-v``.  A clause is a tuple of literals
(disjunction); a :class:`CNF` is a tuple of clauses (conjunction).

:class:`CNF` is immutable — :meth:`assign` returns a *new* simplified
formula — which is exactly what the distributed solver needs: sub-problems
travel inside messages and must not share mutable state across simulated
nodes.

A formula built from clauses is a *root*.  Each root builds one table,
shared by every formula :meth:`assign` derives from it: per literal, the
bitmask of the root clauses containing it.  A derived formula is that
table plus two ints, ``alive`` (bit ``i``: root clause ``i`` is not yet
satisfied) and ``assigned`` (bit ``v``: variable ``v`` is decided), so
assigning is two bit operations and counting a literal is a bit count.
Its clause tuple is derived only when something reads :attr:`CNF.clauses`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple
from weakref import WeakValueDictionary

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


class _Table:
    """What every formula derived from one root shares (read-only).

    ``masks`` maps a literal to the bitmask of the root clauses holding it;
    ``cvars`` maps a clause's bit to the bitmask of its variables;
    ``by_var`` is ``(var bit, var, positive mask, negative mask)`` per
    occurring variable, largest variable first.  ``plain`` says no clause
    names a variable twice, ``repeats`` that some clause repeats a literal
    (which then counts twice in :meth:`CNF.occurrences`, once in a mask).
    """

    __slots__ = (
        "clauses", "num_vars", "masks", "cvars", "by_var", "full", "units",
        "empty", "plain", "repeats", "__weakref__",
    )

    def __init__(self, clauses: Tuple[Clause, ...], num_vars: int) -> None:
        masks: Dict[Literal, int] = {}
        cvars: Dict[int, int] = {}
        units = 0
        plain, repeats = True, False
        for i, clause in enumerate(clauses):
            bit = 1 << i
            varmask = 0
            for l in clause:
                masks[l] = masks.get(l, 0) | bit
                varmask |= 1 << var_of(l)
            cvars[bit] = varmask
            if len(clause) == 1:
                units |= bit
            if varmask.bit_count() != len(clause):
                plain = False
                repeats = repeats or len(set(clause)) != len(clause)
        self.clauses = clauses
        self.num_vars = num_vars
        self.masks = masks
        self.cvars = cvars
        self.by_var = tuple(
            (1 << v, v, masks.get(v, 0), masks.get(-v, 0))
            for v in sorted({var_of(l) for l in masks}, reverse=True)
        )
        self.full = (1 << len(clauses)) - 1
        self.units = units
        self.empty = () in clauses
        self.plain = plain
        self.repeats = repeats


#: root (clauses, num_vars) -> its table, while some formula uses it; a
#: sub-formula unpickled in another process finds its root's table here
_TABLES: "WeakValueDictionary[Tuple[Tuple[Clause, ...], int], _Table]" = (
    WeakValueDictionary()
)


def _table_of(clauses: Tuple[Clause, ...], num_vars: int) -> _Table:
    key = (clauses, num_vars)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _Table(clauses, num_vars)
    return table


_new = object.__new__


def _derived(
    table: _Table, alive: int, assigned: int, units: int, empty: bool
) -> "CNF":
    """A formula of ``table``'s root: its clauses are derived on demand."""
    cnf = _new(CNF)
    cnf._table = table
    cnf._alive = alive
    cnf._assigned = assigned
    cnf._units = units
    cnf._empty = empty
    cnf._clauses = None
    cnf._lit_cache = None
    return cnf


def _rebuild(
    clauses: Tuple[Clause, ...], num_vars: int, alive: int, assigned: int,
    units: int, empty: bool,
) -> "CNF":
    """Unpickle a formula: its root's table plus its own ints."""
    return _derived(_table_of(clauses, num_vars), alive, assigned, units, empty)


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

    __slots__ = (
        "_table", "_alive", "_assigned", "_units", "_empty", "_clauses", "_lit_cache",
    )

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
        self._root(cs, int(num_vars))

    def _root(self, clauses: Tuple[Clause, ...], num_vars: int) -> None:
        table = _table_of(clauses, num_vars)
        self._table = table
        self._alive = table.full
        self._assigned = 0
        self._units = table.units
        self._empty = table.empty
        self._clauses = clauses
        self._lit_cache = None

    # A formula pickles as its root plus its own ints: the table is rebuilt
    # once per root and process, not per message.  What it *is*, for
    # digests and equality, is ``(clauses, num_vars)``; a state of that
    # form (checkpoints written before the table existed) restores as a
    # root with those clauses.
    def __reduce__(self):
        table = self._table
        return (_rebuild, (
            table.clauses, table.num_vars, self._alive, self._assigned,
            self._units, self._empty,
        ))

    def __getstate__(self) -> Tuple[Tuple[Clause, ...], int]:
        return (self.clauses, self._table.num_vars)

    def __setstate__(self, state: Tuple[Tuple[Clause, ...], int]) -> None:
        clauses, num_vars = state
        self._root(clauses, num_vars)

    # -- basic structure ---------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Declared variable count of the root formula."""
        return self._table.num_vars

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The remaining clauses, in root order, each without its falsified
        literals (derived on first read and kept)."""
        clauses = self._clauses
        if clauses is None:
            table = self._table
            alive, assigned = self._alive, self._assigned
            cvars = table.cvars
            out = []
            for i, clause in enumerate(table.clauses):
                bit = 1 << i
                if alive & bit:
                    if cvars[bit] & assigned:
                        clause = tuple([l for l in clause if not assigned >> var_of(l) & 1])
                    out.append(clause)
            clauses = self._clauses = tuple(out)
        return clauses

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return self._alive.bit_count()

    @property
    def num_literals(self) -> int:
        """Number of literal occurrences, summed over the clauses."""
        table = self._table
        if table.repeats:
            return sum([len(c) for c in self.clauses])
        alive, assigned = self._alive, self._assigned
        total = 0
        for vbit, _var, pos, neg in table.by_var:
            if not assigned & vbit:
                total += (pos & alive).bit_count() + (neg & alive).bit_count()
        return total

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return self._alive.bit_count()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CNF)
            and self.num_vars == other.num_vars
            and self.clauses == other.clauses
        )

    def __hash__(self) -> int:
        return hash((self.clauses, self.num_vars))

    def occurrences(self) -> Dict[Literal, List[int]]:
        """Literal -> ascending positions of the clauses containing it.

        Derived from :attr:`clauses` by a scan on first call and cached
        (read it, never mutate it); a literal repeated inside a clause
        repeats the position, so ``len`` counts it.  The solver's own paths
        never need it: they count literals on the bitmasks.
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
            self._lit_cache = index
        return index

    def occurs(self, lit: Literal) -> bool:
        """True iff ``lit`` appears in some clause."""
        masks = self._table.masks
        return (
            lit in masks
            and not self._assigned >> (lit if lit > 0 else -lit) & 1
            and masks[lit] & self._alive != 0
        )

    def literals(self) -> FrozenSet[Literal]:
        """The set of literals appearing in the formula."""
        alive, assigned = self._alive, self._assigned
        out = []
        for vbit, var, pos, neg in self._table.by_var:
            if not assigned & vbit:
                if pos & alive:
                    out.append(var)
                if neg & alive:
                    out.append(-var)
        return frozenset(out)

    def variables(self) -> FrozenSet[int]:
        """Variables appearing in the formula."""
        alive, assigned = self._alive, self._assigned
        return frozenset([
            var for vbit, var, pos, neg in self._table.by_var
            if not assigned & vbit and (pos | neg) & alive
        ])

    # -- solver predicates -------------------------------------------------

    @property
    def is_consistent(self) -> bool:
        """Paper's ``consistent(problem)``: no clauses remain → satisfied."""
        return not self._alive

    @property
    def has_empty_clause(self) -> bool:
        """Paper's ``exist_empty_clause``: some clause is unsatisfiable."""
        return self._empty

    def unit_literals(self) -> List[Literal]:
        """Literals forced by unit clauses, in clause order, deduplicated.

        When contradictory units (``l`` and ``-l``) are both present, both
        are reported — :meth:`assign` of one then produces the empty clause
        from the other, surfacing the conflict naturally.
        """
        seen: set[Literal] = set()
        out: List[Literal] = []
        table = self._table
        if not table.plain:
            for c in self.clauses:
                if len(c) == 1 and c[0] not in seen:
                    seen.add(c[0])
                    out.append(c[0])
            return out
        units = self._units
        free = ~self._assigned
        while units:
            low = units & -units
            units ^= low
            left = table.cvars[low] & free
            for l in table.clauses[low.bit_length() - 1]:
                if 1 << var_of(l) == left:
                    if l not in seen:
                        seen.add(l)
                        out.append(l)
                    break
        return out

    def pure_literals(self) -> List[Literal]:
        """Literals that occur in only one polarity, ascending by variable."""
        alive, assigned = self._alive, self._assigned
        out = []
        for vbit, var, pos, neg in reversed(self._table.by_var):
            if not assigned & vbit:
                pos &= alive
                neg &= alive
                if pos and not neg:
                    out.append(var)
                elif neg and not pos:
                    out.append(-var)
        return out

    # -- transformation ------------------------------------------------------

    def assign(self, lit: Literal) -> "CNF":
        """Return the formula simplified under ``lit = true``.

        Clauses containing ``lit`` are satisfied (dropped); occurrences of
        ``-lit`` are falsified (removed, possibly leaving an empty clause).
        Assigning a variable already decided changes nothing.
        """
        if lit == 0:
            raise ApplicationError("cannot assign literal 0")
        bit = 1 << (lit if lit > 0 else -lit)
        assigned = self._assigned
        if assigned & bit:
            # lit and -lit are gone from every clause already; dropping the
            # clauses of -lit's mask now would be wrong
            return self
        assigned |= bit
        table = self._table
        masks = table.masks
        alive = self._alive
        if lit in masks:
            alive &= ~masks[lit]
        units = self._units & alive
        empty = self._empty
        if -lit in masks:
            touched = masks[-lit] & alive
            if touched:
                # the clauses that lost -lit: none left is an empty clause,
                # one left (in a plain table) a unit clause
                units &= ~touched
                free = ~assigned
                cvars = table.cvars
                while touched:
                    low = touched & -touched
                    touched ^= low
                    left = cvars[low] & free
                    if not left:
                        empty = True
                    elif not left & (left - 1):
                        units |= low
        return _derived(table, alive, assigned, units, empty)

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
            "num_literals": self.num_literals,
            "free_vars": len(self.variables()),
        }

    def __repr__(self) -> str:
        return f"CNF({self.num_clauses} clauses, {self.num_vars} vars)"
