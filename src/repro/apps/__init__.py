"""Layer 5 — one module per registered workload (paper §III-A5).

* :mod:`repro.apps.traversal` — Listing 1 (layer-1 flood fill).
* :mod:`repro.apps.sumrec`    — Listings 2 & 3 (the running sum example).
* :mod:`repro.apps.fib`       — Cilk-style fork-join Fibonacci.
* :mod:`repro.apps.sat`       — the DPLL SAT solver of §V (the paper's use
  case) and its sequential/brute-force references.
* :mod:`repro.apps.nqueens`   — N-queens via non-deterministic choice.

More solvers live in ``examples/zoo/``; its ``knapsack.py`` plugs in as
a :class:`~repro.workloads.Workload` record from outside the package.
"""

__all__ = ["traversal", "sumrec", "fib", "sat", "nqueens"]
