"""Graph k-coloring — constraint satisfaction via non-deterministic choice.

A third member of the combinatorial-solver family alongside SAT and
N-queens: vertices are coloured one at a time in a fixed order, and every
invocation explores all feasible colours for the next vertex as concurrent
subcalls.  Like the SAT solver, the first complete colouring found anywhere
in the mesh wins.

The module also provides a sequential backtracking reference, a greedy
upper bound, and seeded random-graph generators for workloads.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ApplicationError
from repro.recursion import Call, Choice, Result, Sync

__all__ = [
    "ColoringProblem",
    "coloring_found",
    "color_graph",
    "sequential_coloring",
    "greedy_coloring",
    "chromatic_number",
    "is_valid_coloring",
    "random_graph",
    "cycle_graph",
    "complete_graph",
]

#: edges as a tuple of (u, v) pairs with u < v; vertices are 0..n-1
Edges = Tuple[Tuple[int, int], ...]


def _check_graph(n_vertices: int, edges: Sequence[Tuple[int, int]]) -> Edges:
    if n_vertices < 0:
        raise ApplicationError(f"vertex count must be >= 0, got {n_vertices}")
    out = []
    for u, v in edges:
        if u == v:
            raise ApplicationError(f"self-loop on vertex {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ApplicationError(f"edge ({u},{v}) outside 0..{n_vertices - 1}")
        out.append((min(u, v), max(u, v)))
    return tuple(sorted(set(out)))


class ColoringProblem(NamedTuple):
    """Sub-problem: the graph, the palette size and colours chosen so far.

    ``colors[i]`` is vertex *i*'s colour; vertices are coloured in index
    order, so ``len(colors)`` is the next vertex to colour.
    """

    n_vertices: int
    edges: Edges
    k: int
    colors: Tuple[int, ...] = ()

    @classmethod
    def build(
        cls, n_vertices: int, edges: Sequence[Tuple[int, int]], k: int
    ) -> "ColoringProblem":
        """Validated constructor."""
        if k < 0:
            raise ApplicationError(f"palette size must be >= 0, got {k}")
        return cls(n_vertices, _check_graph(n_vertices, edges), k)


def _neighbours_of(problem: ColoringProblem, vertex: int) -> List[int]:
    out = []
    for u, v in problem.edges:
        if u == vertex:
            out.append(v)
        elif v == vertex:
            out.append(u)
    return out


def _feasible_colors(problem: ColoringProblem, vertex: int) -> List[int]:
    used = {
        problem.colors[n]
        for n in _neighbours_of(problem, vertex)
        if n < len(problem.colors)
    }
    return [c for c in range(problem.k) if c not in used]


def is_valid_coloring(
    n_vertices: int, edges: Sequence[Tuple[int, int]], coloring: Sequence[int], k: int
) -> bool:
    """Full validity check for a claimed colouring."""
    if len(coloring) != n_vertices or any(not (0 <= c < k) for c in coloring):
        return False
    return all(coloring[u] != coloring[v] for u, v in edges)


def coloring_found(result) -> bool:
    """Choice predicate: a colour tuple means success."""
    return result is not None


def color_graph(problem: ColoringProblem):
    """Layer-5 k-coloring: one vertex per invocation, choice over colours."""
    vertex = len(problem.colors)
    if vertex == problem.n_vertices:
        yield Result(problem.colors)
        return
    candidates = _feasible_colors(problem, vertex)
    if not candidates:
        yield Result(None)
        return
    hint = float(problem.n_vertices - vertex)
    yield Choice(
        coloring_found,
        *[
            Call(problem._replace(colors=problem.colors + (c,)), hint=hint)
            for c in candidates
        ],
    )
    result = yield Sync()
    yield Result(result)


def sequential_coloring(
    n_vertices: int, edges: Sequence[Tuple[int, int]], k: int
) -> Optional[Tuple[int, ...]]:
    """First valid k-colouring by sequential backtracking (reference)."""
    problem = ColoringProblem.build(n_vertices, edges, k)

    def search(colors: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        if len(colors) == n_vertices:
            return colors
        for c in _feasible_colors(problem._replace(colors=colors), len(colors)):
            sol = search(colors + (c,))
            if sol is not None:
                return sol
        return None

    return search(())


def greedy_coloring(
    n_vertices: int, edges: Sequence[Tuple[int, int]]
) -> Tuple[int, ...]:
    """Greedy colouring in vertex order (upper-bounds the chromatic number)."""
    checked = _check_graph(n_vertices, edges)
    adj: Dict[int, List[int]] = {v: [] for v in range(n_vertices)}
    for u, v in checked:
        adj[u].append(v)
        adj[v].append(u)
    colors: List[int] = []
    for v in range(n_vertices):
        used = {colors[n] for n in adj[v] if n < v}
        c = 0
        while c in used:
            c += 1
        colors.append(c)
    return tuple(colors)


def chromatic_number(n_vertices: int, edges: Sequence[Tuple[int, int]]) -> int:
    """Exact chromatic number by increasing-k search (small graphs only)."""
    if n_vertices == 0:
        return 0
    if n_vertices > 16:
        raise ApplicationError("exact chromatic number limited to 16 vertices")
    for k in range(1, n_vertices + 1):
        if sequential_coloring(n_vertices, edges, k) is not None:
            return k
    raise AssertionError("unreachable: n colours always suffice")


# ---------------------------------------------------------------------------
# workload generators
# ---------------------------------------------------------------------------


def random_graph(n_vertices: int, edge_probability: float, rng: random.Random) -> Edges:
    """Erdos-Renyi G(n, p) graph with seeded randomness."""
    if not (0.0 <= edge_probability <= 1.0):
        raise ApplicationError(f"edge probability must be in [0,1], got {edge_probability}")
    edges = [
        (u, v)
        for u in range(n_vertices)
        for v in range(u + 1, n_vertices)
        if rng.random() < edge_probability
    ]
    return _check_graph(n_vertices, edges)


def cycle_graph(n_vertices: int) -> Edges:
    """The n-cycle (chromatic number 2 if even, 3 if odd, for n >= 3)."""
    if n_vertices < 3:
        raise ApplicationError(f"cycle needs >= 3 vertices, got {n_vertices}")
    return _check_graph(
        n_vertices,
        [(i, (i + 1) % n_vertices) for i in range(n_vertices)],
    )


def complete_graph(n_vertices: int) -> Edges:
    """K_n (chromatic number n)."""
    return _check_graph(
        n_vertices,
        [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)],
    )
