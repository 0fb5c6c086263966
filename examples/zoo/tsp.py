"""Travelling salesman by branch and bound — optimization with deep hints.

A second optimization workload beside knapsack: extend a partial tour city
by city, joining *all* feasible extensions with a plain sync and returning
the minimum.  Each subcall carries a lower bound (partial cost + cheapest
completion estimate) as its cross-layer hint, and subtrees whose bound
exceeds a greedy incumbent are pruned locally.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ApplicationError
from repro.recursion import Call, Result, Sync

__all__ = [
    "TspProblem",
    "tsp",
    "sequential_tsp",
    "brute_force_tsp",
    "greedy_tour",
    "tour_cost",
    "random_distance_matrix",
]

Matrix = Tuple[Tuple[int, ...], ...]


def _check_matrix(dist: Sequence[Sequence[int]]) -> Matrix:
    n = len(dist)
    out = []
    for i, row in enumerate(dist):
        row = tuple(int(x) for x in row)
        if len(row) != n:
            raise ApplicationError(f"distance matrix row {i} has wrong length")
        if row[i] != 0:
            raise ApplicationError(f"diagonal entry ({i},{i}) must be 0")
        if any(x < 0 for x in row):
            raise ApplicationError("distances must be non-negative")
        out.append(row)
    return tuple(out)


class TspProblem(NamedTuple):
    """Sub-problem: distance matrix, the partial tour, its cost so far and
    the best complete cost known when this subtree was spawned."""

    dist: Matrix
    tour: Tuple[int, ...]
    cost: int
    incumbent: int

    @classmethod
    def build(cls, dist: Sequence[Sequence[int]]) -> "TspProblem":
        """Root problem starting at city 0 with a greedy incumbent."""
        matrix = _check_matrix(dist)
        if len(matrix) < 2:
            raise ApplicationError("TSP needs at least 2 cities")
        incumbent = tour_cost(matrix, greedy_tour(matrix))
        return cls(matrix, (0,), 0, incumbent)


def tour_cost(dist: Matrix, tour: Sequence[int]) -> int:
    """Cost of a complete tour (returning to the start)."""
    total = 0
    for a, b in zip(tour, tour[1:]):
        total += dist[a][b]
    total += dist[tour[-1]][tour[0]]
    return total


def greedy_tour(dist: Matrix) -> Tuple[int, ...]:
    """Nearest-neighbour tour from city 0 (the incumbent heuristic)."""
    n = len(dist)
    tour = [0]
    remaining = set(range(1, n))
    while remaining:
        last = tour[-1]
        nxt = min(remaining, key=lambda c: (dist[last][c], c))
        tour.append(nxt)
        remaining.remove(nxt)
    return tuple(tour)


def _lower_bound(problem: TspProblem) -> int:
    """Partial cost + cheapest-outgoing-edge estimate for unvisited cities."""
    dist, tour, cost, _ = problem
    n = len(dist)
    unvisited = [c for c in range(n) if c not in tour]
    bound = cost
    for c in unvisited + [tour[-1]]:
        options = [dist[c][d] for d in unvisited + [tour[0]] if d != c]
        if options:
            bound += min(options)
    return bound


def tsp(problem: TspProblem):
    """Layer-5 branch-and-bound TSP; returns ``(cost, tour)``."""
    dist, tour, cost, incumbent = problem
    n = len(dist)
    if len(tour) == n:
        yield Result((cost + dist[tour[-1]][tour[0]], tour))
        return
    last = tour[-1]
    branches: List[TspProblem] = []
    for city in range(n):
        if city in tour:
            continue
        child = TspProblem(dist, tour + (city,), cost + dist[last][city], incumbent)
        if _lower_bound(child) <= incumbent:
            branches.append(child)
    if not branches:
        yield Result((None, None))  # pruned subtree: no candidate tour
        return
    for b in branches:
        yield Call(b, hint=float(_lower_bound(b)))
    results = yield Sync()
    if len(branches) == 1:
        results = (results,)
    best = min(
        (r for r in results if r[0] is not None),
        default=(None, None),
        key=lambda r: r[0],
    )
    yield Result(best)


def sequential_tsp(dist: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, ...]]:
    """Reference branch-and-bound with a live (improving) incumbent."""
    matrix = _check_matrix(dist)
    n = len(matrix)
    best_cost = tour_cost(matrix, greedy_tour(matrix))
    best_tour = greedy_tour(matrix)

    def search(tour: Tuple[int, ...], cost: int) -> None:
        nonlocal best_cost, best_tour
        if len(tour) == n:
            total = cost + matrix[tour[-1]][tour[0]]
            if total < best_cost:
                best_cost, best_tour = total, tour
            return
        last = tour[-1]
        for city in range(n):
            if city in tour:
                continue
            child_cost = cost + matrix[last][city]
            child = TspProblem(matrix, tour + (city,), child_cost, best_cost)
            if _lower_bound(child) <= best_cost:
                search(tour + (city,), child_cost)

    search((0,), 0)
    return best_cost, best_tour


def brute_force_tsp(dist: Sequence[Sequence[int]]) -> int:
    """Exhaustive optimum (small instances only)."""
    matrix = _check_matrix(dist)
    n = len(matrix)
    if n > 9:
        raise ApplicationError("brute force limited to 9 cities")
    return min(
        tour_cost(matrix, (0,) + perm) for perm in permutations(range(1, n))
    )


def random_distance_matrix(
    n_cities: int, rng: random.Random, max_distance: int = 99
) -> Matrix:
    """A random symmetric distance matrix."""
    if n_cities < 2:
        raise ApplicationError(f"need >= 2 cities, got {n_cities}")
    dist = [[0] * n_cities for _ in range(n_cities)]
    for i in range(n_cities):
        for j in range(i + 1, n_cities):
            d = rng.randint(1, max_distance)
            dist[i][j] = dist[j][i] = d
    return _check_matrix(dist)
