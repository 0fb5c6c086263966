"""Picklable SAT-sweep cells for the parallel executor.

The figure and ablation benches all reduce to the same cell: solve one CNF
on one simulated machine with some knob settings and keep a handful of
scalar metrics.  A :class:`SatCell` is that cell as a value — the run's
:class:`~repro.engine.RunSpec` plus the machine's topology object —
:func:`sat_cell` builds one, :func:`run_sat_task` executes it (in this
process or a pool worker), and :class:`SatOutcome` carries back only what
the benches aggregate — scalars plus the optional activity trace / heatmap
arrays Figure 5 needs — instead of the full report object graph.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from ..apps.sat.cnf import CNF
from ..engine import RunSpec, execute
from ..topology import Topology, spec_of
from ..workloads import WORKLOADS
from .executor import resolve_jobs, run_tasks

__all__ = ["SatCell", "SatOutcome", "sat_cell", "run_sat_task", "solve_sat_tasks"]


class SatCell(NamedTuple):
    """One sweep cell: the spec to execute and the machine to execute it on.

    The topology rides along as an *object* (sweeps build exotic meshes
    directly); ``collect_activity`` / ``collect_heatmap`` opt into the
    Figure-5 arrays (omitted from the outcome otherwise to keep IPC cheap).
    """

    spec: RunSpec
    topology: Topology
    collect_activity: bool = False
    collect_heatmap: bool = False


def sat_cell(
    cnf: CNF,
    topology: Topology,
    *,
    collect_activity: bool = False,
    collect_heatmap: bool = False,
    **knobs: Any,
) -> SatCell:
    """The cell solving ``cnf`` on ``topology``; ``knobs`` are RunSpec fields.

    Sweeps default to ``simplify="none"`` (the paper's unfolding scale);
    the spec's topology string is best-effort via
    :func:`~repro.topology.spec_of`, the object is what runs.
    """
    knobs.setdefault("simplify", "none")
    spec = RunSpec(
        workload="sat",
        workload_params=cnf.to_params(),
        topology=spec_of(topology),
        **knobs,
    )
    return SatCell(spec, topology, collect_activity, collect_heatmap)


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


def run_sat_task(cell: SatCell) -> SatOutcome:
    """Execute one sweep cell; the pool's worker function."""
    run = execute(cell.spec, topology=cell.topology)
    report = run.report
    stats = run.engine_stats
    # a claimed model must satisfy the formula (UNSAT verdicts are verified
    # against dpll elsewhere)
    params = cell.spec.workload_params
    verified = WORKLOADS["sat"].check_witness(params, run.verdict) is None
    return SatOutcome(
        computation_time=report.computation_time,
        sent_total=report.sent_total,
        delivered_total=report.delivered_total,
        traffic_total=report.traffic_total,
        peak_queued=report.peak_queued,
        active_nodes=report.active_node_count,
        satisfiable=bool(run.verdict["sat"]),
        verified=verified,
        invocations=stats.invocations if stats is not None else 0,
        completions=stats.completions if stats is not None else 0,
        activity=report.interconnect_activity if cell.collect_activity else None,
        heatmap=report.heatmap() if cell.collect_heatmap else None,
    )


def solve_sat_tasks(
    tasks: Sequence[SatCell],
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
