"""The bitset ``CNF`` against the tuple-of-clauses formula it replaced.

``TupleCNF`` below is the representation ``CNF`` had before its shared
per-literal clause masks: a tuple of clause tuples, rebuilt by every
``assign``, with every query a scan.  The bitset form must answer every
query the same way, through any sequence of assignments and any number
of pickle and ``deepcopy`` round trips, on formulas that hold what uf20
never does: literals repeated inside a clause, tautologies, empty input
clauses, declared variables no clause mentions, assignments of absent or
already decided variables.
"""

import copy
import pickle
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps.sat import (
    CNF,
    first_literal,
    jeroslow_wang,
    make_random_heuristic,
    max_occurrence,
    moms,
    parse_dimacs,
    uf20_91_suite,
    var_of,
)
from repro.engine import RunSpec, execute
from repro.errors import ApplicationError
from repro.state import normalize

MAX_VARS = 5
NUM_VARS = MAX_VARS + 2  # variables 6 and 7 never occur


class TupleCNF:
    """The formula as a tuple of clause tuples; every query scans it."""

    def __init__(self, clauses, num_vars):
        self.clauses = tuple(tuple(c) for c in clauses)
        self.num_vars = num_vars

    def assign(self, lit):
        return TupleCNF(
            [tuple(l for l in c if l != -lit) for c in self.clauses if lit not in c],
            self.num_vars,
        )

    @property
    def is_consistent(self):
        return not self.clauses

    @property
    def has_empty_clause(self):
        return () in self.clauses

    def occurrences(self):
        index = {}
        for pos, clause in enumerate(self.clauses):
            for l in clause:
                index.setdefault(l, []).append(pos)
        return index

    def literals(self):
        return frozenset(l for c in self.clauses for l in c)

    def variables(self):
        return frozenset(var_of(l) for l in self.literals())

    def unit_literals(self):
        return list(dict.fromkeys(c[0] for c in self.clauses if len(c) == 1))

    def pure_literals(self):
        lits = self.literals()
        return sorted((l for l in lits if -l not in lits), key=lambda l: (var_of(l), l < 0))


def scan_max_occurrence(cnf):
    occ = cnf.occurrences()
    if not occ:
        raise ApplicationError("cannot select a literal from an empty formula")
    return max([(len(where), -abs(l), l) for l, where in occ.items()])[2]


def outcome(fn, cnf):
    try:
        return fn(cnf)
    except ApplicationError as exc:
        return ("raised", str(exc))


def assert_same(cnf, ref):
    assert cnf.clauses == ref.clauses
    assert cnf.num_clauses == len(cnf) == len(ref.clauses)
    assert cnf.num_vars == ref.num_vars
    assert cnf.is_consistent == ref.is_consistent
    assert cnf.has_empty_clause == ref.has_empty_clause
    assert cnf.occurrences() == ref.occurrences()
    assert cnf.literals() == ref.literals()
    assert cnf.variables() == ref.variables()
    assert cnf.num_literals == sum(len(c) for c in ref.clauses)
    for v in range(1, NUM_VARS + 1):
        for lit in (v, -v):
            assert cnf.occurs(lit) == (lit in ref.literals())
    assert cnf.unit_literals() == ref.unit_literals()
    assert cnf.pure_literals() == ref.pure_literals()
    assert outcome(max_occurrence, cnf) == outcome(scan_max_occurrence, ref)
    for heuristic in (first_literal, jeroslow_wang, moms):
        assert outcome(heuristic, cnf) == outcome(heuristic, ref)
    pick, ref_pick = (make_random_heuristic(random.Random(7)) for _ in range(2))
    assert outcome(pick, cnf) == outcome(ref_pick, ref)
    assert normalize(cnf) == ["obj", "CNF", normalize((ref.clauses, ref.num_vars))]
    root = CNF(ref.clauses, ref.num_vars)
    assert cnf == root and hash(cnf) == hash(root)


literals = st.integers(1, MAX_VARS).flatmap(lambda v: st.sampled_from([v, -v]))
#: any literal, an absent variable's included
any_literal = st.integers(1, NUM_VARS).flatmap(lambda v: st.sampled_from([v, -v]))
#: drawn with replacement, so repeats and tautologies come up; may be empty
messy_clauses = st.lists(literals, min_size=0, max_size=5)
formulas = st.lists(messy_clauses, min_size=0, max_size=10)
#: each step: the literal to assign, and whether to go on from the formula
#: itself, a pickled copy or a deep copy
steps = st.lists(
    st.tuples(any_literal, st.sampled_from(["same", "pickle", "deepcopy"])),
    max_size=8,
)


def travel(cnf, how):
    if how == "pickle":
        return pickle.loads(pickle.dumps(cnf))
    if how == "deepcopy":
        return copy.deepcopy(cnf)
    return cnf


@given(formulas, steps)
@settings(max_examples=300)
def test_every_query_matches_the_tuple_formula(clauses, plan):
    cnf, ref = CNF(clauses, NUM_VARS), TupleCNF(clauses, NUM_VARS)
    assert_same(cnf, ref)
    for lit, how in plan:
        cnf, ref = travel(cnf, how).assign(lit), ref.assign(lit)
        assert_same(cnf, ref)
        # assigning a decided variable again, either way, changes nothing
        for again in (lit, -lit):
            assert_same(cnf.assign(again), ref.assign(again))


def test_search_trees_choose_the_tuple_formulas_literal():
    """The full ``simplify="none"`` search trees of four uf20 formulas:
    every sub-formula has the same terminal and the same branch literal."""
    visited = 0

    def walk(cnf, ref):
        nonlocal visited
        visited += 1
        assert (cnf.is_consistent, cnf.has_empty_clause) == (
            ref.is_consistent, ref.has_empty_clause,
        )
        if cnf.is_consistent or cnf.has_empty_clause:
            return
        lit = max_occurrence(cnf)
        assert lit == scan_max_occurrence(ref)
        assert cnf.num_clauses == len(ref.clauses)
        walk(cnf.assign(lit), ref.assign(lit))
        walk(cnf.assign(-lit), ref.assign(-lit))

    for root in uf20_91_suite(4, 2017):
        walk(root, TupleCNF(root.clauses, root.num_vars))
    assert visited == 5574


# Four clauses repeat a literal and one is a tautology, so a literal's
# count in ``occurrences()`` is not its clause count: the bitset form must
# count as the tuple form did.  The digests were recorded with the tuple
# form; dropping the repeats moves both schedules.
REPEATS = """\
c uniform random 3-SAT, 8 vars, 30 clauses (seed 4), with literal
c repeats written into four clauses and one tautology
p cnf 8 30
-4 -4 3 1 0
-1 -4 -5 0
4 -5 -7 0
-5 -2 -1 -2 0
4 -2 -3 0
6 1 5 0
4 -8 -3 0
-5 -1 -3 -3 -3 0
-4 8 7 0
5 3 -1 0
8 -6 3 0
4 6 7 0
6 6 0
-4 3 5 0
3 8 4 0
-5 6 7 0
3 -7 -6 0
2 3 5 0
7 5 2 0
-3 -8 7 0
4 8 -2 -4 0
-3 -5 1 0
1 -8 -5 0
4 8 2 0
-7 4 2 0
4 1 7 0
4 8 -3 0
-2 -5 -4 0
1 4 -7 0
-3 -8 -7 0
"""

REPEATS_PINNED = {
    # simplify -> (schedule digest, semantic digest, steps), and the
    # schedule digest of the same formula with its repeats dropped
    "none": ("b15ddceebdca1e4d", "d7fccc58b182c96c", 35, "382f185602b20c96"),
    "single": ("f49b108fbd9a7955", "1eb75e1f6607d6ed", 11, "882108d598c139fc"),
}


def test_repeated_literals_run_as_the_tuple_formula_ran():
    cnf = parse_dimacs(REPEATS)
    deduped = CNF([tuple(dict.fromkeys(c)) for c in cnf.clauses], cnf.num_vars)
    for simplify, (schedule, semantic, steps, without) in REPEATS_PINNED.items():
        spec = RunSpec(
            workload="sat", workload_params=cnf.to_params(), topology="torus2d:3x3",
            mapper="lbn", status=4, simplify=simplify, seed=2,
        )
        run = execute(spec, want_state_digest=True)
        assert (run.schedule_digest(), run.semantic_digest, run.report.steps) == (
            schedule, semantic, steps,
        )
        assert cnf.is_satisfied_by(dict(run.verdict["assignment"]))
        plain = execute(spec.with_(workload_params=deduped.to_params()))
        assert plain.schedule_digest() == without
