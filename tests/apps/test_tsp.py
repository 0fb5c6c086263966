"""Tests for the branch-and-bound TSP application."""

import random

import pytest

from repro import HyperspaceStack
from repro.errors import ApplicationError
from repro.topology import Torus
from zoo.tsp import (
    TspProblem,
    brute_force_tsp,
    greedy_tour,
    random_distance_matrix,
    sequential_tsp,
    tour_cost,
    tsp,
)

SQUARE = (
    (0, 1, 9, 1),
    (1, 0, 1, 9),
    (9, 1, 0, 1),
    (1, 9, 1, 0),
)


class TestMatrixValidation:
    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ApplicationError):
            TspProblem.build(((1, 2), (2, 0)))

    def test_ragged_rejected(self):
        with pytest.raises(ApplicationError):
            TspProblem.build(((0, 1), (1,)))

    def test_negative_rejected(self):
        with pytest.raises(ApplicationError):
            TspProblem.build(((0, -1), (-1, 0)))

    def test_too_small_rejected(self):
        with pytest.raises(ApplicationError):
            TspProblem.build(((0,),))

    def test_random_matrix_symmetric(self):
        m = random_distance_matrix(6, random.Random(1))
        for i in range(6):
            assert m[i][i] == 0
            for j in range(6):
                assert m[i][j] == m[j][i]


class TestReferences:
    def test_square_optimum(self):
        assert brute_force_tsp(SQUARE) == 4
        cost, tour = sequential_tsp(SQUARE)
        assert cost == 4
        assert tour_cost(TspProblem.build(SQUARE).dist, tour) == 4

    def test_greedy_tour_visits_all(self):
        m = random_distance_matrix(7, random.Random(2))
        tour = greedy_tour(m)
        assert sorted(tour) == list(range(7))

    def test_sequential_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(5):
            m = random_distance_matrix(6, rng)
            assert sequential_tsp(m)[0] == brute_force_tsp(m)

    def test_brute_force_limit(self):
        m = random_distance_matrix(10, random.Random(0))
        with pytest.raises(ApplicationError):
            brute_force_tsp(m)


class TestDistributedTsp:
    def test_square(self):
        stack = HyperspaceStack(Torus((4, 4)), seed=1)
        (cost, tour), _ = stack.run_recursive(tsp, TspProblem.build(SQUARE))
        assert cost == 4
        assert sorted(tour) == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force(self, seed):
        m = random_distance_matrix(6, random.Random(seed))
        stack = HyperspaceStack(Torus((4, 4)), seed=seed)
        (cost, tour), _ = stack.run_recursive(tsp, TspProblem.build(m))
        assert cost == brute_force_tsp(m)
        assert tour_cost(m, tour) == cost

    def test_hint_mapper(self):
        m = random_distance_matrix(6, random.Random(5))
        stack = HyperspaceStack(Torus((4, 4)), mapper="hint", seed=5)
        (cost, _), _ = stack.run_recursive(tsp, TspProblem.build(m))
        assert cost == brute_force_tsp(m)

    def test_pruning_bounds_work(self):
        # the incumbent prune never removes the optimum
        rng = random.Random(11)
        stack = HyperspaceStack(Torus((3, 3)), seed=4)
        for _ in range(3):
            m = random_distance_matrix(5, rng)
            (cost, _), _ = stack.run_recursive(tsp, TspProblem.build(m))
            assert cost == brute_force_tsp(m)

    def test_two_cities(self):
        m = ((0, 7), (7, 0))
        stack = HyperspaceStack(Torus((3, 3)))
        (cost, tour), _ = stack.run_recursive(tsp, TspProblem.build(m))
        assert cost == 14
        assert tour == (0, 1)
