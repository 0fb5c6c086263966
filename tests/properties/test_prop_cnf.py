"""Property-based tests for CNF operations and DPLL correctness."""

import copy
import pickle
from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps.sat import (
    CNF,
    brute_force_count,
    brute_force_solve,
    dpll_solve,
    jeroslow_wang,
    max_occurrence,
    moms,
    parse_dimacs,
    to_dimacs,
    var_of,
)

MAX_VARS = 6

literals = st.integers(1, MAX_VARS).flatmap(
    lambda v: st.sampled_from([v, -v])
)
clauses = st.lists(literals, min_size=1, max_size=4).map(tuple)
cnfs = st.lists(clauses, min_size=0, max_size=12).map(
    lambda cs: CNF(cs, num_vars=MAX_VARS)
)
assignments = st.fixed_dictionaries(
    {v: st.booleans() for v in range(1, MAX_VARS + 1)}
)


@given(cnfs, assignments)
def test_assign_preserves_truth(cnf, assignment):
    """Simplifying under lit=True keeps the formula's value under any
    total assignment that agrees with the literal."""
    for var in range(1, MAX_VARS + 1):
        lit = var if assignment[var] else -var
        simplified = cnf.assign(lit)
        assert simplified.evaluate(assignment) == cnf.evaluate(assignment)


@given(cnfs)
def test_assign_removes_variable(cnf):
    for lit in list(cnf.literals())[:4]:
        simplified = cnf.assign(lit)
        assert lit not in simplified.literals()
        assert -lit not in simplified.literals()


@given(cnfs)
def test_dimacs_roundtrip(cnf):
    assert parse_dimacs(to_dimacs(cnf)) == cnf


@given(cnfs)
@settings(max_examples=60)
def test_dpll_matches_brute_force(cnf):
    expected = brute_force_solve(cnf) is not None
    res = dpll_solve(cnf)
    assert res.satisfiable == expected
    if res.satisfiable:
        assert cnf.evaluate(res.assignment) in (True, None)
        # completing the partial model arbitrarily must satisfy the formula
        total = {v: res.assignment.get(v, True) for v in range(1, MAX_VARS + 1)}
        assert cnf.is_satisfied_by(total)


@given(cnfs, assignments)
def test_evaluate_total_assignment_is_decided(cnf, assignment):
    assert cnf.evaluate(assignment) in (True, False)


@given(cnfs)
def test_unit_literals_are_unit_clauses(cnf):
    units = cnf.unit_literals()
    for lit in units:
        assert (lit,) in cnf.clauses


@given(cnfs)
def test_pure_literals_single_polarity(cnf):
    lits = cnf.literals()
    for lit in cnf.pure_literals():
        assert lit in lits
        assert -lit not in lits


@given(cnfs)
def test_model_count_invariant_under_assign_split(cnf):
    """#SAT(F) == #SAT(F|x) + #SAT(F|~x) for any variable x."""
    total = brute_force_count(cnf)
    pos = brute_force_count(CNF(cnf.assign(1).clauses, num_vars=MAX_VARS))
    neg = brute_force_count(CNF(cnf.assign(-1).clauses, num_vars=MAX_VARS))
    # assign() eliminates var 1; counts over the remaining space halve
    assert total == (pos + neg) // 2


# -- the occurrence index against the scans it replaced ------------------------
#
# The reference functions below are the implementations CNF and the
# heuristics had before one cached occurrence index served a whole branch
# step; the formulas deliberately hold what uf20 never does: literals
# repeated inside a clause, tautological clauses, empty clauses.

messy_clauses = st.lists(literals, min_size=0, max_size=5).map(tuple)
messy_cnfs = st.lists(messy_clauses, min_size=0, max_size=10).map(
    lambda cs: CNF(cs, num_vars=MAX_VARS + 1)
)
#: present, absent (variable MAX_VARS + 1 never occurs) and either polarity
any_literal = st.integers(1, MAX_VARS + 1).flatmap(
    lambda v: st.sampled_from([v, -v])
)


def scan_assign(cnf, lit):
    new_clauses = []
    for c in cnf.clauses:
        if lit in c:
            continue
        if -lit in c:
            new_clauses.append(tuple(l for l in c if l != -lit))
        else:
            new_clauses.append(c)
    return CNF(new_clauses, num_vars=cnf.num_vars)


def scan_literals(cnf):
    return frozenset(l for c in cnf.clauses for l in c)


@given(messy_cnfs, any_literal)
def test_assign_equals_the_scan_with_and_without_the_index(cnf, lit):
    expected = scan_assign(cnf, lit)
    assert cnf._lit_cache is None
    assert cnf.assign(lit) == expected
    assert cnf._lit_cache is None  # one assign never builds an index
    clauses, index = cnf.clauses, copy.deepcopy(cnf.occurrences())
    assert cnf.assign(lit) == expected
    assert cnf.clauses == clauses and cnf.occurrences() == index


@given(messy_cnfs)
def test_occurrences_count_every_literal(cnf):
    occ = cnf.occurrences()
    assert {l: len(where) for l, where in occ.items()} == Counter(
        l for c in cnf.clauses for l in c
    )
    for l, where in occ.items():
        assert where == sorted(where)
        assert all(l in cnf.clauses[pos] for pos in where)


@given(messy_cnfs)
def test_queries_equal_their_scanning_definitions(cnf):
    lits = scan_literals(cnf)
    assert cnf.literals() == lits
    assert cnf.variables() == frozenset(var_of(l) for l in lits)
    assert cnf.pure_literals() == sorted(
        (l for l in lits if -l not in lits), key=lambda l: (var_of(l), l < 0)
    )
    units = [c[0] for c in cnf.clauses if len(c) == 1]
    assert cnf.unit_literals() == list(dict.fromkeys(units))
    assert cnf.has_empty_clause == any(not c for c in cnf.clauses)


@given(messy_cnfs, any_literal)
def test_copies_travel_without_the_index(cnf, lit):
    cnf.occurrences()
    for clone in (pickle.loads(pickle.dumps(cnf)), copy.deepcopy(cnf)):
        assert clone._lit_cache is None
        assert clone == cnf
        assert clone.assign(lit) == cnf.assign(lit)
        assert clone.occurrences() == cnf.occurrences()


def keyed_max(scores):
    return max(scores, key=lambda l: (scores[l], -var_of(l), l > 0))


def scan_max_occurrence(cnf):
    return keyed_max(Counter(l for c in cnf.clauses for l in c))


def scan_moms(cnf):
    min_len = min(len(c) for c in cnf.clauses if c)
    return keyed_max(Counter(l for c in cnf.clauses if len(c) == min_len for l in c))


def scan_jeroslow_wang(cnf):
    scores = {}
    for c in cnf.clauses:
        for l in c:
            scores[l] = scores.get(l, 0.0) + 2.0 ** (-len(c))
    return keyed_max(scores)


def _shuffled(clauses, rng):
    rng.shuffle(clauses)
    return CNF(clauses, num_vars=MAX_VARS)


#: every literal of a distinct set repeated the same number of times, in any
#: clause order: the count decides nothing, the tie-break everything
tied_cnfs = st.tuples(
    st.lists(literals, min_size=1, max_size=2 * MAX_VARS, unique=True),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
).map(lambda t: _shuffled([(l,) for l in t[0]] * t[1], t[2]))


@given(st.one_of(messy_cnfs.filter(lambda cnf: any(cnf.clauses)), tied_cnfs))
def test_keyless_max_picks_what_the_key_function_picked(cnf):
    assert max_occurrence(cnf) == scan_max_occurrence(cnf)
    assert moms(cnf) == scan_moms(cnf)
    assert jeroslow_wang(cnf) == scan_jeroslow_wang(cnf)
