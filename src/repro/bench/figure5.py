"""Figure 5 regeneration: temporal and spatial unfolding of SAT problems.

The paper's Figure 5 profiles the solver on a 196-core 2D torus:

* **top row** — superimposed interconnect-activity traces (total queued
  messages vs simulation step) for every benchmark problem, round-robin
  vs least-busy-neighbour;
* **bottom row** — heatmaps of total messages delivered per node across the
  14x14 mesh for one problem, per mapper.

:func:`run_figure5` collects both; :func:`render_figure5` prints sparkline
traces and digit heatmaps.  The qualitative claims (§V-E, asserted by the
benchmark): LBN drains queues faster and unfolds over more of the mesh
(higher spatial entropy / more active nodes) than RR.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..parallel import SatCell, sat_cell, solve_sat_tasks
from ..topology import Torus
from .report import format_series_block, format_table, heatmap_ascii
from .suites import FIGURE5_TORUS_DIMS, BenchPreset, QUICK, sat_suite, with_seed

__all__ = ["Figure5Result", "run_figure5", "render_figure5", "figure5_to_dict"]

#: the two mappers Figure 5 contrasts
FIGURE5_MAPPERS = ("rr", "lbn")
MAPPER_TITLES = {"rr": "Round Robin", "lbn": "Least Busy Neighbour"}


class Figure5Result:
    """Traces and heatmaps for both mappers."""

    def __init__(
        self,
        preset: BenchPreset,
        traces: Dict[str, List[np.ndarray]],
        heatmaps: Dict[str, np.ndarray],
        computation_times: Dict[str, List[int]],
    ) -> None:
        self.preset = preset
        #: mapper -> one queued-messages series per problem (top row)
        self.traces = traces
        #: mapper -> 14x14 delivered-messages grid for problem 0 (bottom row)
        self.heatmaps = heatmaps
        #: mapper -> computation time per problem
        self.computation_times = computation_times
        #: summary of the representative traced cell (``trace_path`` runs)
        self.trace_summary: Optional[Dict[str, object]] = None

    def peak_queued(self, mapper: str) -> int:
        """Highest queue population over all problems for one mapper."""
        return int(max(t.max() for t in self.traces[mapper]))

    def mean_computation_time(self, mapper: str) -> float:
        """Average computation time across problems."""
        cts = self.computation_times[mapper]
        return sum(cts) / len(cts)

    def active_nodes(self, mapper: str) -> int:
        """Nodes that received any message (problem 0 heatmap)."""
        return int((self.heatmaps[mapper] > 0).sum())


def run_figure5(
    preset: BenchPreset = QUICK,
    *,
    status_threshold: Optional[int] = 16,
    simplify: str = "none",
    heuristic: str = "max_occurrence",
    jobs: Optional[int] = None,
    trace_path: Optional[str] = None,
    seed: Optional[int] = None,
) -> Figure5Result:
    """Profile the benchmark suite on the 196-core 2D torus of Figure 5.

    ``jobs`` fans the per-``(mapper, problem)`` runs out over a process
    pool (see :mod:`repro.parallel`); results are bit-identical to a
    serial sweep.

    ``trace_path`` additionally captures the LBN mapper on problem 0 —
    the heatmap cell of the bottom row — with a full telemetry pipeline
    and writes a Chrome/Perfetto trace there (in-process, after the
    sweep; see :func:`repro.bench.run_figure4`).

    ``seed`` overrides the preset's pinned base seed (see
    :func:`repro.bench.run_figure4`); ``None`` reproduces the committed
    baselines.
    """
    preset = with_seed(preset, seed)
    problems = sat_suite(preset)
    topo = Torus(FIGURE5_TORUS_DIMS)
    tasks: List[SatCell] = []
    task_keys: List[tuple] = []  # (mapper, problem index)
    for mapper in FIGURE5_MAPPERS:
        status = status_threshold if mapper == "lbn" else None
        for i, cnf in enumerate(problems):
            tasks.append(
                sat_cell(
                    cnf,
                    topo,
                    mapper=mapper,
                    status=status,
                    heuristic=heuristic,
                    simplify=simplify,
                    seed=preset.seed + i,
                    max_steps=preset.max_steps,
                    collect_activity=True,
                    collect_heatmap=i == 0,
                )
            )
            task_keys.append((mapper, i))
    outcomes = solve_sat_tasks(tasks, jobs=jobs)

    traces: Dict[str, List[np.ndarray]] = {m: [] for m in FIGURE5_MAPPERS}
    heatmaps: Dict[str, np.ndarray] = {}
    cts: Dict[str, List[int]] = {m: [] for m in FIGURE5_MAPPERS}
    for (mapper, i), out in zip(task_keys, outcomes):
        traces[mapper].append(out.activity)
        cts[mapper].append(out.computation_time)
        if i == 0:
            heatmaps[mapper] = out.heatmap
    result = Figure5Result(preset, traces, heatmaps, cts)
    if trace_path is not None:
        from ..telemetry import capture_sat_trace

        result.trace_summary = capture_sat_trace(
            sat_cell(
                problems[0],
                topo,
                mapper="lbn",
                status=status_threshold,
                heuristic=heuristic,
                simplify=simplify,
                seed=preset.seed,
                max_steps=preset.max_steps,
            ),
            trace_path,
        )
    return result


def assert_figure5_shape(result: Figure5Result) -> None:
    """Assert §V-E's qualitative Figure-5 claims on regenerated data."""
    from ..netsim import spatial_entropy

    for mapper in FIGURE5_MAPPERS:
        for trace in result.traces[mapper]:
            assert trace.max() > 10, f"{mapper}: no real queue buildup"
            assert trace[-1] == 0, f"{mapper}: machine did not drain"
    assert result.active_nodes("lbn") > result.active_nodes("rr"), (
        "LBN did not unfold over more of the mesh than RR"
    )
    assert spatial_entropy(result.heatmaps["lbn"].ravel()) > spatial_entropy(
        result.heatmaps["rr"].ravel()
    ), "LBN's activity is not spread more evenly than RR's"
    assert result.mean_computation_time("lbn") < result.mean_computation_time(
        "rr"
    ), "LBN was not faster than RR on the 196-core torus"


def figure5_to_dict(result: Figure5Result) -> Dict[str, object]:
    """Figure-5 data as a JSON-ready dict (see ``repro.bench.report``).

    Carries the per-problem activity traces, the problem-0 heatmaps and the
    summary row :func:`render_figure5` tabulates.
    """
    return {
        "figure": "figure5",
        "preset": {
            "name": result.preset.name,
            "n_problems": result.preset.n_problems,
            "seed": result.preset.seed,
        },
        "mappers": {
            mapper: {
                "mean_computation_time": result.mean_computation_time(mapper),
                "peak_queued": result.peak_queued(mapper),
                "active_nodes": result.active_nodes(mapper),
                "computation_times": list(result.computation_times[mapper]),
                "traces": [t.tolist() for t in result.traces[mapper]],
                "heatmap": result.heatmaps[mapper].tolist(),
            }
            for mapper in FIGURE5_MAPPERS
        },
    }


def render_figure5(result: Figure5Result) -> str:
    """Print Figure 5: traces as sparklines, heatmaps as digit grids."""
    blocks: List[str] = [
        "Figure 5 — temporal and spatial unfolding "
        f"(196-core 2D torus, {result.preset.n_problems} problems)"
    ]
    for mapper in FIGURE5_MAPPERS:
        title = MAPPER_TITLES[mapper]
        series = {
            f"problem {i}": t for i, t in enumerate(result.traces[mapper])
        }
        blocks.append(f"\n[{title}] queued messages vs step (superimposed traces)")
        blocks.append(format_series_block(series))
        blocks.append(f"\n[{title}] node activity heatmap (problem 0)")
        blocks.append(heatmap_ascii(result.heatmaps[mapper]))
    rows = []
    for mapper in FIGURE5_MAPPERS:
        rows.append(
            [
                MAPPER_TITLES[mapper],
                round(result.mean_computation_time(mapper), 1),
                result.peak_queued(mapper),
                result.active_nodes(mapper),
            ]
        )
    blocks.append("")
    blocks.append(
        format_table(
            ["mapper", "mean computation time", "peak queued", "active nodes"],
            rows,
        )
    )
    return "\n".join(blocks)
