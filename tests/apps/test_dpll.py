"""Tests for the sequential DPLL solver and its simplification rules."""

import random

import pytest

from repro.apps.sat import (
    CNF,
    assign_pures,
    brute_force_solve,
    dpll_solve,
    propagate_units,
    uniform_random_ksat,
)
from repro.errors import ApplicationError


class TestPropagateUnits:
    def test_single_unit(self):
        assignment = {}
        cnf = propagate_units(CNF([(1,), (-1, 2)]), assignment)
        assert assignment == {1: True, 2: True}
        assert cnf.is_consistent

    def test_negative_unit(self):
        assignment = {}
        propagate_units(CNF([(-3,)]), assignment)
        assert assignment == {3: False}

    def test_conflict_leaves_empty_clause(self):
        assignment = {}
        cnf = propagate_units(CNF([(1,), (-1,)]), assignment)
        assert cnf.has_empty_clause

    def test_fixpoint_chains(self):
        assignment = {}
        cnf = propagate_units(
            CNF([(1,), (-1, 2), (-2, 3), (-3, 4)]), assignment, fixpoint=True
        )
        assert assignment == {1: True, 2: True, 3: True, 4: True}
        assert cnf.is_consistent

    def test_single_pass_defers_new_units(self):
        assignment = {}
        cnf = propagate_units(
            CNF([(1,), (-1, 2), (-2, 3)]), assignment, fixpoint=False
        )
        # one sweep assigns 1 only; (2) becomes a unit left for later
        assert assignment == {1: True}
        assert (2,) in cnf.clauses

    def test_no_units_noop(self):
        cnf = CNF([(1, 2)])
        assignment = {}
        assert propagate_units(cnf, assignment) == cnf
        assert assignment == {}


class TestAssignPures:
    def test_pure_positive(self):
        assignment = {}
        cnf = assign_pures(CNF([(1, 2), (1, -2)]), assignment)
        assert assignment[1] is True
        assert cnf.num_clauses == 0

    def test_pure_negative(self):
        assignment = {}
        assign_pures(CNF([(-3, 2), (-3, -2)]), assignment)
        assert assignment[3] is False

    def test_purity_rechecked_between_assigns(self):
        # assigning one pure literal may remove clauses and flip another
        # variable's purity; the sweep must not assign based on stale data
        assignment = {}
        cnf = assign_pures(CNF([(1, 2), (1, -2), (-2, 3)]), assignment)
        for var, value in assignment.items():
            # every assignment must be sound: no empty clause produced
            assert not cnf.has_empty_clause


class TestDpllSolve:
    def test_trivial_sat(self, tiny_cnf):
        res = dpll_solve(tiny_cnf)
        assert res.satisfiable
        assert tiny_cnf.is_satisfied_by(res.assignment)

    def test_trivial_unsat(self, unsat_cnf):
        res = dpll_solve(unsat_cnf)
        assert not res.satisfiable
        assert res.assignment is None

    def test_bool_protocol(self, tiny_cnf, unsat_cnf):
        assert dpll_solve(tiny_cnf)
        assert not dpll_solve(unsat_cnf)

    def test_empty_formula_sat(self):
        assert dpll_solve(CNF([])).satisfiable

    def test_empty_clause_unsat(self):
        assert not dpll_solve(CNF([()])).satisfiable

    def test_model_is_verified(self, small_sat_suite):
        for cnf in small_sat_suite:
            res = dpll_solve(cnf)
            assert res.satisfiable
            assert cnf.is_satisfied_by(res.assignment)

    @pytest.mark.parametrize(
        "heuristic", ["first", "max_occurrence", "jeroslow_wang", "moms"]
    )
    def test_all_heuristics_agree(self, heuristic):
        rng = random.Random(17)
        for _ in range(10):
            cnf = uniform_random_ksat(8, 30, 3, rng)
            expected = brute_force_solve(cnf) is not None
            res = dpll_solve(cnf, heuristic=heuristic)
            assert res.satisfiable == expected
            if res.satisfiable:
                assert cnf.is_satisfied_by(res.assignment)

    def test_random_heuristic(self):
        rng = random.Random(3)
        cnf = uniform_random_ksat(8, 30, 3, rng)
        res = dpll_solve(cnf, heuristic="random", rng=random.Random(5))
        assert res.satisfiable == (brute_force_solve(cnf) is not None)

    def test_stats_populated(self, small_sat_suite):
        res = dpll_solve(small_sat_suite[0])
        assert res.stats.branches >= 1
        assert res.stats.max_depth >= 0
        assert res.stats.unit_propagations >= 0
        d = res.stats.as_dict()
        assert set(d) == {
            "decisions",
            "unit_propagations",
            "pure_assignments",
            "max_depth",
            "branches",
        }

    def test_max_branches_cap(self):
        rng = random.Random(0)
        cnf = uniform_random_ksat(20, 91, 3, rng)
        with pytest.raises(RuntimeError):
            dpll_solve(cnf, max_branches=1)

    def test_hard_unsat_instance(self):
        # pigeonhole-ish: 3 vars, all 8 sign combinations as clauses -> UNSAT
        clauses = [
            (s1 * 1, s2 * 2, s3 * 3)
            for s1 in (1, -1)
            for s2 in (1, -1)
            for s3 in (1, -1)
        ]
        assert not dpll_solve(CNF(clauses)).satisfiable

    def test_heuristic_choosing_an_absent_variable_is_rejected(self, small_sat_suite):
        # used to recurse on an unchanged formula until RecursionError
        calls = []

        def absent(cnf):
            calls.append(cnf)
            return 99

        with pytest.raises(ApplicationError, match="literal 99, whose variable"):
            dpll_solve(small_sat_suite[0], heuristic=absent)
        assert len(calls) == 1
