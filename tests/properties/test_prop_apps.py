"""Property-based tests: distributed solvers agree with references on
randomly generated instances of every application."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import HyperspaceStack
from repro.topology import Torus
from zoo.coloring import (
    ColoringProblem,
    color_graph,
    is_valid_coloring,
    sequential_coloring,
)
from zoo.knapsack import (
    Item,
    KnapsackProblem,
    make_knapsack_solver,
    sequential_knapsack,
)
from zoo.subsetsum import (
    SubsetSumProblem,
    sequential_subset_sum,
    subset_sum,
)

STACK_SEEDS = st.integers(0, 5)


def make_stack(seed):
    return HyperspaceStack(Torus((3, 3)), seed=seed)


# -- graph coloring ---------------------------------------------------------

graphs = st.builds(
    lambda n, seed, p: (n, tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if random.Random(seed * 1000 + u * 31 + v).random() < p
    )),
    st.integers(1, 6),
    st.integers(0, 50),
    st.sampled_from([0.2, 0.5, 0.8]),
)


@given(graphs, st.integers(1, 4), STACK_SEEDS)
@settings(max_examples=30, deadline=None)
def test_coloring_matches_reference(graph, k, seed):
    n, edges = graph
    expected = sequential_coloring(n, edges, k)
    sol, _ = make_stack(seed).run_recursive(
        color_graph, ColoringProblem.build(n, edges, k)
    )
    assert (sol is None) == (expected is None)
    if sol is not None:
        assert is_valid_coloring(n, edges, sol, k)


# -- subset sum --------------------------------------------------------------

subset_instances = st.builds(
    lambda nums, target: (tuple(nums), target),
    st.lists(st.integers(1, 30), min_size=1, max_size=8),
    st.integers(0, 120),
)


@given(subset_instances, STACK_SEEDS)
@settings(max_examples=40, deadline=None)
def test_subset_sum_matches_reference(instance, seed):
    numbers, target = instance
    expected = sequential_subset_sum(numbers, target)
    sol, _ = make_stack(seed).run_recursive(
        subset_sum, SubsetSumProblem.build(numbers, target)
    )
    assert (sol is None) == (expected is None)
    if sol is not None:
        assert sum(sol) == target


# -- knapsack -----------------------------------------------------------------

knapsack_instances = st.builds(
    lambda pairs, cap: (
        tuple(sorted((Item(v, w) for v, w in pairs),
                     key=lambda it: it.value / it.weight, reverse=True)),
        cap,
    ),
    st.lists(st.tuples(st.integers(1, 40), st.integers(1, 15)),
             min_size=1, max_size=7),
    st.integers(0, 40),
)


@given(knapsack_instances, st.booleans(), STACK_SEEDS)
@settings(max_examples=30, deadline=None)
def test_knapsack_matches_dp(instance, prune, seed):
    items, capacity = instance
    expected = sequential_knapsack(items, capacity)
    solver = make_knapsack_solver(use_hints=False, prune=prune)
    value, _ = make_stack(seed).run_recursive(
        solver, KnapsackProblem(items, 0, capacity, 0)
    )
    assert value == expected
