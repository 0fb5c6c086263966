"""Tests for the graph-coloring application."""

import random

import pytest

from repro import HyperspaceStack
from repro.errors import ApplicationError
from repro.topology import Torus
from zoo.coloring import (
    ColoringProblem,
    chromatic_number,
    color_graph,
    coloring_found,
    complete_graph,
    cycle_graph,
    greedy_coloring,
    is_valid_coloring,
    random_graph,
    sequential_coloring,
)


class TestGraphConstruction:
    def test_cycle_graph(self):
        edges = cycle_graph(5)
        assert len(edges) == 5
        assert (0, 4) in edges

    def test_cycle_too_small(self):
        with pytest.raises(ApplicationError):
            cycle_graph(2)

    def test_complete_graph(self):
        assert len(complete_graph(5)) == 10

    def test_self_loop_rejected(self):
        with pytest.raises(ApplicationError):
            ColoringProblem.build(3, [(1, 1)], 2)

    def test_out_of_range_edge(self):
        with pytest.raises(ApplicationError):
            ColoringProblem.build(3, [(0, 5)], 2)

    def test_duplicate_edges_merged(self):
        p = ColoringProblem.build(3, [(0, 1), (1, 0), (0, 1)], 2)
        assert p.edges == ((0, 1),)

    def test_random_graph_seeded(self):
        a = random_graph(8, 0.5, random.Random(3))
        b = random_graph(8, 0.5, random.Random(3))
        assert a == b

    def test_random_graph_probability_bounds(self):
        with pytest.raises(ApplicationError):
            random_graph(5, 1.5, random.Random(0))
        assert random_graph(5, 0.0, random.Random(0)) == ()
        assert len(random_graph(5, 1.0, random.Random(0))) == 10


class TestSequentialReferences:
    def test_even_cycle_two_colorable(self):
        assert sequential_coloring(6, cycle_graph(6), 2) is not None

    def test_odd_cycle_needs_three(self):
        assert sequential_coloring(7, cycle_graph(7), 2) is None
        assert sequential_coloring(7, cycle_graph(7), 3) is not None

    def test_complete_graph_chromatic(self):
        assert chromatic_number(5, complete_graph(5)) == 5

    def test_empty_graph(self):
        assert chromatic_number(4, ()) == 1
        assert chromatic_number(0, ()) == 0

    def test_greedy_upper_bounds_chromatic(self):
        rng = random.Random(6)
        for _ in range(5):
            edges = random_graph(8, 0.4, rng)
            greedy_k = max(greedy_coloring(8, edges), default=-1) + 1
            assert greedy_k >= chromatic_number(8, edges)

    def test_greedy_is_valid(self):
        edges = random_graph(10, 0.3, random.Random(1))
        colors = greedy_coloring(10, edges)
        assert is_valid_coloring(10, edges, colors, max(colors) + 1)


class TestValidity:
    def test_valid(self):
        assert is_valid_coloring(3, ((0, 1), (1, 2)), (0, 1, 0), 2)

    def test_conflict(self):
        assert not is_valid_coloring(3, ((0, 1),), (0, 0, 1), 2)

    def test_wrong_length(self):
        assert not is_valid_coloring(3, (), (0, 1), 2)

    def test_color_out_of_palette(self):
        assert not is_valid_coloring(2, (), (0, 5), 2)

    def test_found_predicate(self):
        assert coloring_found(())
        assert not coloring_found(None)


class TestDistributedColoring:
    def test_matches_sequential_feasibility(self):
        rng = random.Random(12)
        stack = HyperspaceStack(Torus((4, 4)), seed=5)
        for _ in range(5):
            edges = random_graph(7, 0.4, rng)
            k = chromatic_number(7, edges)
            # feasible at k
            sol, _ = stack.run_recursive(
                color_graph, ColoringProblem.build(7, edges, k)
            )
            assert sol is not None
            assert is_valid_coloring(7, edges, sol, k)
            # infeasible at k-1 (skip k=1 graphs)
            if k > 1:
                sol, _ = stack.run_recursive(
                    color_graph, ColoringProblem.build(7, edges, k - 1)
                )
                assert sol is None

    def test_odd_cycle_distributed(self):
        stack = HyperspaceStack(Torus((4, 4)))
        sol, _ = stack.run_recursive(
            color_graph, ColoringProblem.build(9, cycle_graph(9), 2)
        )
        assert sol is None

    @pytest.mark.parametrize("mapper", ["rr", "lbn"])
    def test_mapper_independent(self, mapper):
        stack = HyperspaceStack(Torus((4, 4)), mapper=mapper, seed=2)
        edges = cycle_graph(8)
        sol, _ = stack.run_recursive(
            color_graph, ColoringProblem.build(8, edges, 2)
        )
        assert is_valid_coloring(8, edges, sol, 2)

    def test_zero_vertices(self):
        stack = HyperspaceStack(Torus((3, 3)))
        sol, _ = stack.run_recursive(color_graph, ColoringProblem.build(0, (), 1))
        assert sol == ()
