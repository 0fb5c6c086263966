"""Tests for the CNF data structure."""

import pytest

from repro.apps.sat import CNF, negate, var_of
from repro.errors import ApplicationError


class TestLiteralHelpers:
    def test_var_of(self):
        assert var_of(3) == 3
        assert var_of(-7) == 7

    def test_negate(self):
        assert negate(4) == -4
        assert negate(-4) == 4


class TestConstruction:
    def test_basic(self):
        cnf = CNF([(1, -2), (3,)])
        assert cnf.num_clauses == 2
        assert cnf.num_vars == 3

    def test_explicit_num_vars(self):
        cnf = CNF([(1,)], num_vars=10)
        assert cnf.num_vars == 10

    def test_num_vars_too_small_rejected(self):
        with pytest.raises(ApplicationError):
            CNF([(5,)], num_vars=3)

    def test_zero_literal_rejected(self):
        with pytest.raises(ApplicationError):
            CNF([(1, 0)])

    def test_empty_formula(self):
        cnf = CNF([])
        assert cnf.is_consistent
        assert not cnf.has_empty_clause
        assert cnf.num_vars == 0

    def test_empty_clause_detected(self):
        cnf = CNF([(1,), ()])
        assert cnf.has_empty_clause

    def test_immutable(self):
        root = CNF([(1,), (2, 3)])
        for cnf in (root, root.assign(2)):
            with pytest.raises(AttributeError):
                cnf.num_vars = 5
            with pytest.raises(AttributeError):
                cnf.clauses = ()

    def test_equality_and_hash(self):
        a = CNF([(1, 2)], num_vars=2)
        b = CNF([(1, 2)], num_vars=2)
        c = CNF([(1, 2)], num_vars=3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_iteration_and_len(self):
        cnf = CNF([(1,), (2, 3)])
        assert len(cnf) == 2
        assert list(cnf) == [(1,), (2, 3)]


class TestQueries:
    def test_literals(self):
        cnf = CNF([(1, -2), (2, 3)])
        assert cnf.literals() == {1, -2, 2, 3}

    def test_literals_cached(self):
        cnf = CNF([(1,)])
        assert cnf.occurrences() is cnf.occurrences()

    def test_variables(self):
        cnf = CNF([(1, -2), (-3,)])
        assert cnf.variables() == {1, 2, 3}

    def test_unit_literals_in_order(self):
        cnf = CNF([(1, 2), (3,), (-4,), (3,)])
        assert cnf.unit_literals() == [3, -4]

    def test_contradictory_units_both_reported(self):
        cnf = CNF([(1,), (-1,)])
        assert cnf.unit_literals() == [1, -1]

    def test_pure_literals(self):
        cnf = CNF([(1, -2), (1, 3), (-2, -3)])
        # 1 appears only positive, 2 only negative, 3 both ways
        assert cnf.pure_literals() == [1, -2]

    def test_no_pure_literals(self):
        cnf = CNF([(1, -1)])
        assert cnf.pure_literals() == []

    def test_stats(self):
        s = CNF([(1, 2, 3), (-1,)], num_vars=5).stats()
        assert s == {
            "num_vars": 5,
            "num_clauses": 2,
            "num_literals": 4,
            "free_vars": 3,
        }


class TestAssign:
    def test_satisfied_clauses_dropped(self):
        cnf = CNF([(1, 2), (3,)]).assign(1)
        assert cnf.clauses == ((3,),)

    def test_falsified_literals_removed(self):
        cnf = CNF([(-1, 2)]).assign(1)
        assert cnf.clauses == ((2,),)

    def test_empty_clause_creation(self):
        cnf = CNF([(-1,)]).assign(1)
        assert cnf.has_empty_clause

    def test_num_vars_preserved(self):
        cnf = CNF([(1, 2)], num_vars=5).assign(1)
        assert cnf.num_vars == 5

    def test_assign_zero_rejected(self):
        with pytest.raises(ApplicationError):
            CNF([(1,)]).assign(0)

    def test_assign_all(self):
        cnf = CNF([(1, 2), (-1, 3), (-3, -2)])
        out = cnf.assign_all([1, 3])
        assert out.clauses == ((-2,),)

    def test_assign_original_untouched(self):
        cnf = CNF([(1, 2)])
        cnf.assign(1)
        assert cnf.clauses == ((1, 2),)


class TestEvaluate:
    def test_satisfying_assignment(self):
        cnf = CNF([(1, -2), (2, 3)])
        assert cnf.evaluate({1: True, 2: True, 3: False}) is True

    def test_falsifying_assignment(self):
        cnf = CNF([(1,), (-1,)])
        assert cnf.evaluate({1: True}) is False

    def test_partial_undecided(self):
        cnf = CNF([(1, 2)])
        assert cnf.evaluate({1: False}) is None

    def test_partial_but_decided_true(self):
        cnf = CNF([(1, 2)])
        assert cnf.evaluate({1: True}) is True

    def test_empty_formula_true(self):
        assert CNF([]).evaluate({}) is True

    def test_empty_clause_false(self):
        assert CNF([()]).evaluate({}) is False

    def test_is_satisfied_by(self):
        cnf = CNF([(1,), (-2,)])
        assert cnf.is_satisfied_by({1: True, 2: False})
        assert not cnf.is_satisfied_by({1: True})  # undecided is not satisfied
        assert not cnf.is_satisfied_by({1: False, 2: False})
