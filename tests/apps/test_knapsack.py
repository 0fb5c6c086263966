"""Tests for the branch-and-bound knapsack application."""

import random

import pytest

from repro import HyperspaceStack
from repro.errors import ApplicationError
from repro.topology import Ring, Torus
from zoo.knapsack import (
    Item,
    KnapsackProblem,
    fractional_bound,
    knapsack,
    make_knapsack_solver,
    random_knapsack_problem,
    sequential_knapsack,
)


class TestSequentialReference:
    def test_simple(self):
        items = [Item(60, 10), Item(100, 20), Item(120, 30)]
        assert sequential_knapsack(items, 50) == 220

    def test_zero_capacity(self):
        assert sequential_knapsack([Item(10, 5)], 0) == 0

    def test_no_items(self):
        assert sequential_knapsack([], 100) == 0

    def test_all_fit(self):
        items = [Item(5, 1), Item(7, 2)]
        assert sequential_knapsack(items, 10) == 12

    def test_negative_capacity_rejected(self):
        with pytest.raises(ApplicationError):
            sequential_knapsack([], -1)


class TestFractionalBound:
    def test_upper_bounds_exact(self):
        rng = random.Random(4)
        for _ in range(10):
            prob = random_knapsack_problem(8, 40, rng)
            exact = sequential_knapsack(prob.items, prob.capacity)
            assert fractional_bound(prob) >= exact

    def test_exact_when_everything_fits(self):
        items = (Item(4, 1), Item(3, 1))
        prob = KnapsackProblem(items, 0, 10, 0)
        assert fractional_bound(prob) == 7.0

    def test_includes_value_so_far(self):
        prob = KnapsackProblem((), 0, 0, 42)
        assert fractional_bound(prob) == 42.0


class TestRandomProblem:
    def test_sorted_by_density(self):
        prob = random_knapsack_problem(12, 60, random.Random(0))
        densities = [it.value / it.weight for it in prob.items]
        assert densities == sorted(densities, reverse=True)

    def test_negative_items_rejected(self):
        with pytest.raises(ApplicationError):
            random_knapsack_problem(-1, 10, random.Random(0))


class TestDistributedKnapsack:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_dp(self, seed):
        rng = random.Random(seed)
        prob = random_knapsack_problem(9, 45, rng)
        exact = sequential_knapsack(prob.items, prob.capacity)
        stack = HyperspaceStack(Torus((4, 4)), seed=seed)
        value, _ = stack.run_recursive(knapsack, prob)
        assert value == exact

    def test_no_prune_no_hints_matches(self):
        rng = random.Random(7)
        prob = random_knapsack_problem(8, 40, rng)
        exact = sequential_knapsack(prob.items, prob.capacity)
        solver = make_knapsack_solver(use_hints=False, prune=False)
        stack = HyperspaceStack(Torus((4, 4)))
        value, _ = stack.run_recursive(solver, prob)
        assert value == exact

    def test_pruning_reduces_work(self):
        rng = random.Random(11)
        prob = random_knapsack_problem(10, 50, rng)
        pruned = make_knapsack_solver(use_hints=False, prune=True)
        unpruned = make_knapsack_solver(use_hints=False, prune=False)
        stack = HyperspaceStack(Torus((4, 4)))
        stack.run_recursive(pruned, prob, halt_on_result=False)
        pruned_calls = stack.last_run.engine_stats.calls_made
        stack.run_recursive(unpruned, prob, halt_on_result=False)
        unpruned_calls = stack.last_run.engine_stats.calls_made
        assert pruned_calls < unpruned_calls

    def test_hint_mapper_integration(self):
        rng = random.Random(13)
        prob = random_knapsack_problem(9, 45, rng)
        exact = sequential_knapsack(prob.items, prob.capacity)
        stack = HyperspaceStack(Torus((4, 4)), mapper="hint")
        value, _ = stack.run_recursive(knapsack, prob)
        assert value == exact

    def test_small_machine(self):
        rng = random.Random(17)
        prob = random_knapsack_problem(8, 40, rng)
        exact = sequential_knapsack(prob.items, prob.capacity)
        stack = HyperspaceStack(Ring(3))
        value, _ = stack.run_recursive(knapsack, prob)
        assert value == exact

    def test_zero_capacity_problem(self):
        prob = KnapsackProblem((Item(5, 2),), 0, 0, 0)
        stack = HyperspaceStack(Torus((3, 3)))
        value, _ = stack.run_recursive(knapsack, prob)
        assert value == 0
