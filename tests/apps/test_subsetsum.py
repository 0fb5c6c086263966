"""Tests for the subset-sum application."""

import random

import pytest

from repro import HyperspaceStack
from repro.errors import ApplicationError
from repro.topology import Ring, Torus
from zoo.subsetsum import (
    SubsetSumProblem,
    brute_force_subset_sum,
    random_subset_sum_problem,
    sequential_subset_sum,
    subset_found,
    subset_sum,
)


class TestProblemConstruction:
    def test_build(self):
        p = SubsetSumProblem.build([3, 1, 4], 5)
        assert p.numbers == (3, 1, 4)
        assert p.remaining_target == 5

    def test_non_positive_rejected(self):
        with pytest.raises(ApplicationError):
            SubsetSumProblem.build([3, 0], 2)
        with pytest.raises(ApplicationError):
            SubsetSumProblem.build([-1], 2)

    def test_negative_target_rejected(self):
        with pytest.raises(ApplicationError):
            SubsetSumProblem.build([1], -1)


class TestSequentialReference:
    def test_simple_yes(self):
        sol = sequential_subset_sum([3, 34, 4, 12, 5, 2], 9)
        assert sol is not None
        assert sum(sol) == 9

    def test_simple_no(self):
        assert sequential_subset_sum([3, 34, 4, 12, 5, 2], 30) is None

    def test_zero_target(self):
        assert sequential_subset_sum([5, 7], 0) == ()

    def test_matches_brute_force(self):
        rng = random.Random(8)
        for _ in range(25):
            nums = [rng.randint(1, 20) for _ in range(8)]
            target = rng.randint(1, 60)
            assert (sequential_subset_sum(nums, target) is not None) == (
                brute_force_subset_sum(nums, target)
            )

    def test_brute_force_size_limit(self):
        with pytest.raises(ApplicationError):
            brute_force_subset_sum(list(range(1, 30)), 10)


class TestGenerators:
    def test_forced_satisfiable(self):
        rng = random.Random(3)
        for _ in range(5):
            p = random_subset_sum_problem(10, rng, satisfiable=True)
            assert sequential_subset_sum(p.numbers, p.remaining_target) is not None

    def test_forced_unsatisfiable(self):
        rng = random.Random(3)
        p = random_subset_sum_problem(6, rng, satisfiable=False)
        assert sequential_subset_sum(p.numbers, p.remaining_target) is None

    def test_invalid_size(self):
        with pytest.raises(ApplicationError):
            random_subset_sum_problem(0, random.Random(0))


class TestDistributedSubsetSum:
    def test_satisfiable_instances(self):
        rng = random.Random(5)
        stack = HyperspaceStack(Torus((4, 4)), seed=1)
        for _ in range(4):
            p = random_subset_sum_problem(10, rng, satisfiable=True)
            sol, _ = stack.run_recursive(subset_sum, p)
            assert sol is not None
            assert sum(sol) == p.remaining_target

    def test_unsatisfiable_instances(self):
        rng = random.Random(6)
        stack = HyperspaceStack(Torus((4, 4)), seed=1)
        for _ in range(3):
            p = random_subset_sum_problem(8, rng, satisfiable=False)
            sol, _ = stack.run_recursive(subset_sum, p)
            assert sol is None

    def test_matches_sequential_decision(self):
        rng = random.Random(7)
        stack = HyperspaceStack(Torus((3, 3)), seed=2)
        for _ in range(6):
            p = random_subset_sum_problem(9, rng)
            expected = sequential_subset_sum(p.numbers, p.remaining_target)
            sol, _ = stack.run_recursive(subset_sum, p)
            assert (sol is not None) == (expected is not None)

    def test_zero_target_immediate(self):
        stack = HyperspaceStack(Ring(3))
        sol, report = stack.run_recursive(
            subset_sum, SubsetSumProblem.build([5, 5], 0)
        )
        assert sol == ()
        assert report.steps <= 2  # decided at the trigger node

    def test_found_predicate(self):
        assert subset_found(())
        assert not subset_found(None)
