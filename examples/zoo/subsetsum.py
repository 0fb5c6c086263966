"""Subset sum — a decision problem with SAT-like speculative structure.

Given positive integers and a target, decide whether some subset sums to
the target (and produce it).  Each invocation branches on including or
excluding the next number under non-deterministic choice, with two
classic prunes (remaining-sum bound and overshoot), making it a compact
second decision-problem workload beside SAT.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ApplicationError
from repro.recursion import Call, Choice, Result, Sync

__all__ = [
    "SubsetSumProblem",
    "subset_found",
    "subset_sum",
    "sequential_subset_sum",
    "brute_force_subset_sum",
    "random_subset_sum_problem",
]


class SubsetSumProblem(NamedTuple):
    """Sub-problem: remaining numbers start at ``index``; ``chosen`` is the
    set picked so far; ``remaining_target`` what it still must sum to."""

    numbers: Tuple[int, ...]
    remaining_target: int
    index: int = 0
    chosen: Tuple[int, ...] = ()

    @classmethod
    def build(cls, numbers: Sequence[int], target: int) -> "SubsetSumProblem":
        """Validated constructor (positive numbers, non-negative target)."""
        nums = tuple(int(x) for x in numbers)
        if any(x <= 0 for x in nums):
            raise ApplicationError("subset sum requires positive numbers")
        if target < 0:
            raise ApplicationError(f"target must be >= 0, got {target}")
        return cls(nums, int(target))


def subset_found(result) -> bool:
    """Choice predicate: a tuple of chosen numbers means success."""
    return result is not None


def subset_sum(problem: SubsetSumProblem):
    """Layer-5 subset sum: include/exclude under speculative choice."""
    numbers, target, idx, chosen = problem
    if target == 0:
        yield Result(chosen)
        return
    if idx >= len(numbers):
        yield Result(None)
        return
    # prune: even taking everything left cannot reach the target
    if sum(numbers[idx:]) < target:
        yield Result(None)
        return
    branches = []
    head = numbers[idx]
    if head <= target:  # prune overshoot on the include branch
        branches.append(
            SubsetSumProblem(numbers, target - head, idx + 1, chosen + (head,))
        )
    branches.append(SubsetSumProblem(numbers, target, idx + 1, chosen))
    if len(branches) == 1:
        yield Call(branches[0])
        result = yield Sync()
        yield Result(result)
    else:
        yield Choice(subset_found, *[Call(b) for b in branches])
        result = yield Sync()
        yield Result(result)


def sequential_subset_sum(
    numbers: Sequence[int], target: int
) -> Optional[Tuple[int, ...]]:
    """Reference: depth-first search with the same prunes."""
    problem = SubsetSumProblem.build(numbers, target)

    def search(idx: int, remaining: int, chosen: Tuple[int, ...]):
        if remaining == 0:
            return chosen
        if idx >= len(problem.numbers) or sum(problem.numbers[idx:]) < remaining:
            return None
        head = problem.numbers[idx]
        if head <= remaining:
            sol = search(idx + 1, remaining - head, chosen + (head,))
            if sol is not None:
                return sol
        return search(idx + 1, remaining, chosen)

    return search(0, problem.remaining_target, ())


def brute_force_subset_sum(numbers: Sequence[int], target: int) -> bool:
    """Exhaustive decision reference (small inputs only)."""
    nums = list(numbers)
    if len(nums) > 20:
        raise ApplicationError("brute force limited to 20 numbers")
    if target == 0:
        return True
    for r in range(1, len(nums) + 1):
        for combo in combinations(nums, r):
            if sum(combo) == target:
                return True
    return False


def random_subset_sum_problem(
    n_numbers: int,
    rng: random.Random,
    max_value: int = 50,
    satisfiable: Optional[bool] = None,
) -> SubsetSumProblem:
    """A random instance; ``satisfiable`` forces the answer when not None."""
    if n_numbers < 1:
        raise ApplicationError(f"need >= 1 number, got {n_numbers}")
    while True:
        numbers = tuple(rng.randint(1, max_value) for _ in range(n_numbers))
        if satisfiable is True:
            size = rng.randint(1, n_numbers)
            target = sum(rng.sample(numbers, size))
            return SubsetSumProblem.build(numbers, target)
        target = rng.randint(1, sum(numbers))
        problem = SubsetSumProblem.build(numbers, target)
        if satisfiable is None:
            return problem
        if (sequential_subset_sum(numbers, target) is not None) == satisfiable:
            return problem
