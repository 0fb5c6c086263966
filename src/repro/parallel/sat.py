"""Picklable SAT-sweep tasks for the parallel executor.

The figure and ablation benches all reduce to the same cell: solve one CNF
on one simulated machine with some knob settings and keep a handful of
scalar metrics.  :class:`SatTask` captures that cell as a value,
:func:`run_sat_task` executes it (in this process or a pool worker), and
:class:`SatOutcome` carries back only what the benches aggregate — scalars
plus the optional activity trace / heatmap arrays Figure 5 needs — instead
of the full report object graph.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..apps.sat.cnf import CNF
from ..topology import Topology
from .executor import resolve_jobs, run_tasks

__all__ = ["SatTask", "SatOutcome", "run_sat_task", "solve_sat_tasks"]


class SatTask(NamedTuple):
    """One sweep cell: formula + machine + solver/stack knobs.

    Field defaults mirror :class:`repro.engine.RunSpec` (except
    ``simplify``: sweeps reproduce the paper's unfolding scale);
    ``collect_activity`` / ``collect_heatmap`` opt into the Figure-5
    arrays (omitted from the result otherwise to keep IPC cheap).
    """

    cnf: CNF
    topology: Topology
    mapper: str = "rr"
    status: Optional[int] = None
    heuristic: str = "max_occurrence"
    cancellation: bool = False
    hint_mode: Optional[str] = None
    simplify: str = "none"
    seed: int = 0
    max_steps: int = 1_000_000
    drain: bool = True
    share_threshold: Optional[int] = None
    sat_sizing: bool = False
    collect_activity: bool = False
    collect_heatmap: bool = False

    def to_runspec(self):
        """The canonical :class:`repro.engine.RunSpec` for this cell.

        The topology rides along as an *object* (sweeps build exotic
        meshes directly), so :func:`run_sat_task` passes it to
        :func:`~repro.engine.execute` explicitly; the spec's topology
        string is best-effort via :func:`~repro.topology.spec_of`.
        """
        from ..engine import RunSpec
        from ..topology import spec_of

        # the solver/stack knobs are RunSpec fields of the same name
        knobs = self._asdict()
        for own in ("cnf", "topology", "collect_activity", "collect_heatmap"):
            del knobs[own]
        return RunSpec(
            workload="sat",
            workload_params=self.cnf.to_params(),
            topology=spec_of(self.topology),
            **knobs,
        )


class SatOutcome(NamedTuple):
    """The metrics one sweep cell contributes to its bench's aggregates."""

    computation_time: int
    sent_total: int
    delivered_total: int
    traffic_total: int
    peak_queued: int
    active_nodes: int
    satisfiable: bool
    verified: bool
    invocations: int
    completions: int
    activity: Optional[np.ndarray] = None
    heatmap: Optional[np.ndarray] = None


def run_sat_task(task: SatTask) -> SatOutcome:
    """Execute one sweep cell; the pool's worker function."""
    from ..engine import execute

    run = execute(task.to_runspec(), topology=task.topology)
    report = run.report
    stats = run.engine_stats
    satisfiable = bool(run.verdict["sat"])
    if satisfiable:
        model = dict(run.verdict["assignment"])
        verified = task.cnf.is_satisfied_by(model)
    else:
        verified = True  # UNSAT verdicts are verified against dpll elsewhere
    return SatOutcome(
        computation_time=report.computation_time,
        sent_total=report.sent_total,
        delivered_total=report.delivered_total,
        traffic_total=report.traffic_total,
        peak_queued=report.peak_queued,
        active_nodes=report.active_node_count,
        satisfiable=satisfiable,
        verified=verified,
        invocations=stats.invocations if stats is not None else 0,
        completions=stats.completions if stats is not None else 0,
        activity=report.interconnect_activity if task.collect_activity else None,
        heatmap=report.heatmap() if task.collect_heatmap else None,
    )


def solve_sat_tasks(
    tasks: Sequence[SatTask],
    *,
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> "list[SatOutcome]":
    """Run a batch of sweep cells, results in task order (deterministic).

    Unless overridden, cells ship in chunks of roughly *two per worker*:
    sweep cells are coarse (each is a whole simulation), so per-trip IPC
    and pool warmup dominate over tail balance, and fewer-but-larger
    chunks amortise both better than the executor's generic default.
    """
    tasks = list(tasks)
    if chunksize is None:
        workers = resolve_jobs(jobs)
        if workers > 1:
            chunksize = max(1, -(-len(tasks) // (workers * 2)))
    return run_tasks(run_sat_task, tasks, jobs=jobs, chunksize=chunksize)
