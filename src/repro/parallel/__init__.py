"""Parallel sweep execution (host-level, outside the simulated machine).

The simulator itself is single-threaded and deterministic; what *is*
embarrassingly parallel is the benchmark harness above it — every
``(series, core count, problem)`` cell of a figure or ablation sweep is an
independent seeded simulation.  This package fans those cells out over a
process pool while keeping results bit-identical to a serial run:

* :mod:`repro.parallel.executor` — the generic pool (ordered results,
  chunked scheduling, ``REPRO_JOBS``, serial fallback, traceback-carrying
  :class:`WorkerError`);
* :mod:`repro.parallel.sat` — the SAT sweep cell used by the figure and
  ablation benches.
"""

from .executor import JOBS_ENV_VAR, WorkerError, resolve_jobs, run_tasks
from .sat import SatCell, SatOutcome, run_sat_task, sat_cell, solve_sat_tasks

__all__ = [
    "JOBS_ENV_VAR",
    "WorkerError",
    "resolve_jobs",
    "run_tasks",
    "SatCell",
    "SatOutcome",
    "run_sat_task",
    "sat_cell",
    "solve_sat_tasks",
]
