"""0/1 knapsack by branch and bound — the cross-layer-hints showcase.

The paper's §III-B3 motivates letting applications pass problem-size
estimates down to the mapping layer ("solvers often employ lazy evaluation
functions to prune the search space ... mapping algorithms can exploit such
knowledge").  Knapsack's fractional upper bound is exactly such an estimate:
each subcall carries its bound as a hint, and hint-aware mappers route the
heavier branches to quieter neighbours.

Unlike SAT/N-queens this solver needs *both* branch results (it maximises),
so it exercises the plain two-call ``Sync`` join rather than choice.

:data:`WORKLOAD` is the solver as a workload record, with params
``{"items": [[value, weight], ...], "capacity": C}``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ApplicationError
from repro.netsim import ShardProgramSpec
from repro.recursion import Call, Result, Sync
from repro.workloads import Program, Workload

__all__ = [
    "Item",
    "KnapsackProblem",
    "fractional_bound",
    "make_knapsack_solver",
    "knapsack",
    "sequential_knapsack",
    "random_knapsack_problem",
    "WORKLOAD",
]


class Item(NamedTuple):
    """One knapsack item."""

    value: int
    weight: int


class KnapsackProblem(NamedTuple):
    """Sub-problem: items (sorted by density), next index, remaining
    capacity, and the value accumulated by decisions taken so far."""

    items: Tuple[Item, ...]
    index: int = 0
    capacity: int = 0
    value_so_far: int = 0


def _check_items(items: Sequence[Item]) -> Tuple[Item, ...]:
    out = tuple(Item(int(v), int(w)) for v, w in items)
    for it in out:
        if it.weight < 0 or it.value < 0:
            raise ApplicationError(f"negative item {it} not supported")
    return out


def fractional_bound(problem: KnapsackProblem) -> float:
    """Upper bound: greedy fractional relaxation from ``index`` onward.

    Assumes ``items`` are sorted by value density (descending); the solver
    constructors enforce that.
    """
    bound = float(problem.value_so_far)
    cap = problem.capacity
    for it in problem.items[problem.index :]:
        if it.weight <= cap:
            bound += it.value
            cap -= it.weight
        else:
            if it.weight > 0:
                bound += it.value * (cap / it.weight)
            break
    return bound


def make_knapsack_solver(use_hints: bool = True, prune: bool = True):
    """Build the layer-5 branch-and-bound generator.

    ``use_hints`` attaches each subcall's fractional bound as its mapping
    hint; ``prune`` skips branches whose bound cannot beat the *local*
    incumbent (no global incumbent exists on a hyperspace machine — pruning
    is per-subtree, exactly the "lazy evaluation" the paper describes).
    """

    def knapsack(problem: KnapsackProblem):
        items, idx, cap, acc = problem
        if idx >= len(items) or cap <= 0:
            yield Result(acc)
            return
        item = items[idx]
        exclude = KnapsackProblem(items, idx + 1, cap, acc)
        calls = []
        branches: List[KnapsackProblem] = [exclude]
        if item.weight <= cap:
            include = KnapsackProblem(items, idx + 1, cap - item.weight, acc + item.value)
            branches.append(include)
        if prune and len(branches) == 2:
            # greedy completion of the include branch is a feasible incumbent
            incumbent = _greedy_value(branches[1])
            branches = [
                b for b in branches if fractional_bound(b) >= incumbent
            ] or branches[-1:]
        for b in branches:
            hint = fractional_bound(b) if use_hints else None
            calls.append(Call(b, hint=hint))
        for c in calls:
            yield c
        results = yield Sync()
        if len(calls) == 1:
            yield Result(results)
        else:
            yield Result(max(results))

    return knapsack


def _greedy_value(problem: KnapsackProblem) -> int:
    """Feasible greedy completion (lower bound / incumbent)."""
    total = problem.value_so_far
    cap = problem.capacity
    for it in problem.items[problem.index :]:
        if it.weight <= cap:
            total += it.value
            cap -= it.weight
    return total


#: default solver: hints on, pruning on
knapsack = make_knapsack_solver()


def sequential_knapsack(items: Sequence[Item], capacity: int) -> int:
    """Exact optimum by dynamic programming (reference)."""
    items = _check_items(items)
    if capacity < 0:
        raise ApplicationError(f"capacity must be >= 0, got {capacity}")
    best = [0] * (capacity + 1)
    for value, weight in items:
        for c in range(capacity, weight - 1, -1):
            cand = best[c - weight] + value
            if cand > best[c]:
                best[c] = cand
    return best[capacity]


def random_knapsack_problem(
    n_items: int, capacity: int, rng, max_value: int = 100, max_weight: int = 30
) -> KnapsackProblem:
    """A random instance with items pre-sorted by value density."""
    if n_items < 0:
        raise ApplicationError(f"n_items must be >= 0, got {n_items}")
    items = [
        Item(rng.randint(1, max_value), rng.randint(1, max_weight))
        for _ in range(n_items)
    ]
    return _root_problem(items, capacity)


def _root_problem(items: Sequence[Item], capacity: int) -> KnapsackProblem:
    """The root problem, items sorted by value density as the solver needs."""
    items = sorted(
        _check_items(items), key=lambda it: it.value / it.weight, reverse=True
    )
    return KnapsackProblem(tuple(items), 0, capacity, 0)


# -- the workload record ----------------------------------------------------


def _check_params(params: Dict[str, Any]) -> Optional[str]:
    items, capacity = params.get("items"), params.get("capacity")
    if isinstance(capacity, int) and capacity >= 0 and isinstance(items, list) and all(
        isinstance(it, list) and len(it) == 2 and all(isinstance(x, int) for x in it)
        and it[0] >= 0 and it[1] > 0
        for it in items
    ):
        return None
    return (
        "workload 'knapsack' needs workload_params {'items': [[value, weight], "
        f"...], 'capacity'}} with weights > 0 and capacity >= 0, got {params!r}"
    )


#: knapsack as a workload record; importing this module does not register it
WORKLOAD = Workload(
    name="knapsack",
    default_params={"items": [[10, 5], [40, 4], [30, 6], [50, 3]], "capacity": 10},
    check_params=_check_params,
    # the solver is a closure: a recipe lets shard workers rebuild it
    build=lambda spec, **_: Program(
        fn=ShardProgramSpec(make_knapsack_solver),
        args=_root_problem(
            spec.workload_params["items"], spec.workload_params["capacity"]
        ),
    ),
    verdict=lambda raw: {"value": raw},
    reference=lambda params, _topology: {
        "kind": "knapsack",
        "value": sequential_knapsack(params["items"], params["capacity"]),
    },
)
