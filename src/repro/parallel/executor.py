"""Process-pool execution of independent simulation tasks.

Every figure/ablation sweep in the benchmark harness is a grid of fully
independent, deterministic simulations — one per ``(series, core count,
problem)`` cell.  This module fans those cells out across host cores:

* task specs and results are plain picklable values, executed by a
  module-level worker function (so the pool can ship them by reference);
* results are merged **by task index, never completion order** — a seeded
  sweep returns bit-identical results whether it ran on 1 process or 16;
* ``jobs=1`` (the default) runs serially in-process with zero pool
  overhead, and any failure to spawn a pool degrades to the same serial
  path, so callers never need a fallback of their own;
* a worker exception is re-raised in the parent as :class:`WorkerError`
  carrying the remote traceback text instead of hanging the pool.

The worker count resolves as: explicit ``jobs`` argument, else the
``REPRO_JOBS`` environment variable, else 1 (serial).  ``0`` / ``"auto"``
mean "one worker per host core", and every resolution is capped at the
host core count — oversubscribed workers cannot run concurrently but
still pay full spawn-and-import warmup each.
"""

from __future__ import annotations

import os
import traceback
from typing import Callable, List, Optional, Sequence, TypeVar

from ..errors import SimulationError

__all__ = ["WorkerError", "resolve_jobs", "run_tasks", "JOBS_ENV_VAR"]

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"

T = TypeVar("T")
R = TypeVar("R")


class WorkerError(SimulationError):
    """A task failed inside a pool worker.

    The original exception cannot always unpickle across the process
    boundary, so the worker formats its traceback eagerly; it is available
    as :attr:`worker_traceback` and included in ``str(error)``.
    """

    def __init__(self, task_index: int, worker_traceback: str) -> None:
        self.task_index = task_index
        self.worker_traceback = worker_traceback
        super().__init__(
            f"task {task_index} failed in worker:\n{worker_traceback}"
        )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count from the argument, ``REPRO_JOBS``, or 1.

    ``0`` (or ``REPRO_JOBS=auto``) means one worker per host core.
    Negative values and anything but an ``int`` (a bool, a float, a
    string) are rejected.  The result never exceeds the host
    core count: extra workers cannot add concurrency, but each one
    still pays the full interpreter spawn + import warmup.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip().lower()
        if not raw:
            return 1
        if raw == "auto":
            jobs = 0
        else:
            try:
                jobs = int(raw)
            except ValueError:
                raise SimulationError(
                    f"{JOBS_ENV_VAR} must be an integer or 'auto', got {raw!r}"
                ) from None
    if type(jobs) is not int or jobs < 0:
        # a float would reach max_workers and the chunksize arithmetic
        raise SimulationError(f"jobs must be an int >= 0, got {jobs!r}")
    cpus = os.cpu_count() or 1
    if jobs == 0:
        return cpus
    return min(jobs, cpus)


def _invoke(fn: Callable[[T], R], task: T) -> "tuple[bool, object]":
    """Worker-side shim: trap exceptions and ship the traceback as text."""
    try:
        return (True, fn(task))
    except BaseException:
        return (False, traceback.format_exc())


def _run_serial(fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
    return [fn(task) for task in tasks]


def _warn_serial_fallback(exc: BaseException, n_tasks: int) -> None:
    import warnings

    warnings.warn(
        f"process pool unavailable ({exc!r}); running {n_tasks} tasks serially",
        RuntimeWarning,
        stacklevel=3,
    )


def run_tasks(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    *,
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Run ``fn`` over every task, returning results in task order.

    Parameters
    ----------
    fn:
        A module-level (picklable-by-reference) function of one task.
    tasks:
        Picklable task specs.  Order defines result order.
    jobs:
        Worker processes; see :func:`resolve_jobs`.  ``1`` runs serially
        in-process (no pool, no pickling).
    chunksize:
        Tasks shipped to a worker per round trip.  Defaults to spreading
        tasks roughly four chunks per worker, which amortises IPC without
        starving the tail of the schedule.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if (
        jobs <= 1
        or len(tasks) <= 1
        # an explicit chunksize that swallows the whole task set would be
        # shipped to a single worker anyway — skip the pool spawn
        or (chunksize is not None and len(tasks) <= chunksize)
    ):
        return _run_serial(fn, tasks)
    jobs = min(jobs, len(tasks))
    if chunksize is None:
        chunksize = max(1, len(tasks) // (jobs * 4))
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    except ImportError as exc:  # stripped-down interpreter, no _multiprocessing
        _warn_serial_fallback(exc, len(tasks))
        return _run_serial(fn, tasks)
    from functools import partial

    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(
                pool.map(partial(_invoke, fn), tasks, chunksize=chunksize)
            )
    except (OSError, PermissionError, BrokenProcessPool) as exc:
        # No /dev/shm, fork disallowed, restricted sandbox, ... — the sweep
        # still completes, just serially.
        _warn_serial_fallback(exc, len(tasks))
        return _run_serial(fn, tasks)
    results: List[R] = []
    for index, (ok, value) in enumerate(outcomes):
        if not ok:
            raise WorkerError(index, str(value))
        results.append(value)  # type: ignore[arg-type]
    return results
