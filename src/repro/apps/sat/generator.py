"""Random SAT instance generators (the paper's benchmark workload, §V-C).

The paper benchmarks on "a collection of uniform random 3-SAT problems
(20 variables and 91 clauses each, all satisfiable)" from SATLIB's uf20-91
suite [42].  SATLIB's files are built by sampling uniform random 3-SAT at
that clause/variable ratio and keeping the satisfiable instances; with no
network access we regenerate the same distribution locally:

* :func:`uniform_random_ksat` — k distinct variables per clause, uniform
  polarity (the SATLIB recipe);
* :func:`satisfiable_random_ksat` — rejection-sample until the sequential
  DPLL solver confirms satisfiability (the "all satisfiable" filter);
* :func:`planted_random_ksat` — guaranteed-satisfiable instances via a
  hidden planted assignment (cheaper for large sweeps; slightly different
  distribution, used only where noted);
* :func:`uf20_91_suite` — the drop-in replacement for the paper's 20
  benchmark problems.
"""

from __future__ import annotations

import random
from typing import List

from ...errors import ApplicationError
from ...rng import SeedSequence
from .cnf import CNF
from .dpll import dpll_solve

__all__ = [
    "uniform_random_ksat",
    "satisfiable_random_ksat",
    "planted_random_ksat",
    "uf20_91_suite",
    "clear_suite_cache",
    "UF20_VARS",
    "UF20_CLAUSES",
]

#: parameters of the paper's benchmark suite (SATLIB uf20-91)
UF20_VARS = 20
UF20_CLAUSES = 91


def uniform_random_ksat(
    num_vars: int, num_clauses: int, k: int, rng: random.Random
) -> CNF:
    """One uniform random k-SAT instance.

    Each clause draws ``k`` *distinct* variables uniformly and negates each
    with probability 1/2 — the standard fixed-clause-length model used by
    SATLIB.  Duplicate clauses are permitted (they are in the model too).
    """
    if k < 1:
        raise ApplicationError(f"k must be >= 1, got {k}")
    if num_vars < k:
        raise ApplicationError(
            f"need at least k={k} variables for {k}-SAT, got {num_vars}"
        )
    if num_clauses < 0:
        raise ApplicationError(f"num_clauses must be >= 0, got {num_clauses}")
    variables = range(1, num_vars + 1)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(variables, k)
        clause = [v if rng.random() < 0.5 else -v for v in chosen]
        clauses.append(clause)
    return CNF(clauses, num_vars=num_vars)


def satisfiable_random_ksat(
    num_vars: int,
    num_clauses: int,
    k: int,
    rng: random.Random,
    max_attempts: int = 10_000,
) -> CNF:
    """Rejection-sample :func:`uniform_random_ksat` until satisfiable.

    This reproduces SATLIB's "uf" (uniform-filtered) construction.  At the
    uf20-91 ratio roughly a third to a half of raw samples are satisfiable,
    so a handful of attempts suffice.
    """
    for _ in range(max_attempts):
        cnf = uniform_random_ksat(num_vars, num_clauses, k, rng)
        if dpll_solve(cnf).satisfiable:
            return cnf
    raise ApplicationError(
        f"no satisfiable instance found in {max_attempts} attempts "
        f"({num_vars} vars, {num_clauses} clauses, k={k})"
    )


def planted_random_ksat(
    num_vars: int, num_clauses: int, k: int, rng: random.Random
) -> CNF:
    """Guaranteed-satisfiable k-SAT via a hidden planted assignment.

    A random total assignment is drawn first; candidate clauses violating
    it are rejected and re-sampled.  The planted model is *not* identical
    in distribution to filtered uniform (it biases clauses toward the
    hidden model) — benches that need faithful uf20-91 statistics use
    :func:`satisfiable_random_ksat` instead.
    """
    if num_vars < k:
        raise ApplicationError(
            f"need at least k={k} variables for {k}-SAT, got {num_vars}"
        )
    hidden = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    variables = range(1, num_vars + 1)
    clauses = []
    for _ in range(num_clauses):
        while True:
            chosen = rng.sample(variables, k)
            clause = [v if rng.random() < 0.5 else -v for v in chosen]
            if any(hidden[abs(l)] == (l > 0) for l in clause):
                clauses.append(clause)
                break
    return CNF(clauses, num_vars=num_vars)


#: memoised suites keyed by (n_problems, seed, planted) — see uf20_91_suite
_SUITE_CACHE: "dict[tuple[int, int, bool], tuple[CNF, ...]]" = {}


def uf20_91_suite(
    n_problems: int = 20, seed: int = 2017, planted: bool = False
) -> List[CNF]:
    """The benchmark suite standing in for the paper's 20 SATLIB problems.

    Deterministic in ``seed``; every instance is satisfiable (filtered by
    the sequential DPLL solver, or planted when ``planted=True``).

    Suites are memoised per ``(n_problems, seed, planted)``: generation
    rejection-samples through the sequential solver, which dominates
    start-up cost when every bench invocation (and every parallel sweep)
    asks for the same seeded suite.  Formulas are immutable, so the cached
    instances are shared; the returned list is a fresh copy each call.
    """
    key = (n_problems, seed, planted)
    cached = _SUITE_CACHE.get(key)
    if cached is None:
        seeds = SeedSequence(seed)
        gen = planted_random_ksat if planted else satisfiable_random_ksat
        cached = tuple(
            gen(UF20_VARS, UF20_CLAUSES, 3, rng)
            for rng in seeds.indexed("uf20-91", n_problems)
        )
        _SUITE_CACHE[key] = cached
    return list(cached)


def clear_suite_cache() -> None:
    """Drop all memoised :func:`uf20_91_suite` results (tests only)."""
    _SUITE_CACHE.clear()
