"""Figure 4 regeneration: SAT solver scalability vs topology and mapping.

The paper's Figure 4 plots performance (1/computation time, log-log) against
core count for five configurations: {2D, 3D} torus x {round-robin,
least-busy-neighbour} plus a fully connected baseline, each point averaged
over 20 benchmark SAT problems.

:func:`run_figure4` sweeps exactly that grid on the simulated machines and
:func:`render_figure4` prints the series.  Qualitative invariants the paper
reports (and our benchmark asserts):

* performance rises with core count, then saturates;
* the fully connected machine is the upper envelope at scale;
* 3D beats 2D at equal core count and mapper;
* LBN beats RR on large machines but *hurts* on small ones;
* large 2D+LBN is comparable to 3D+RR, and large 3D+LBN approaches the
  fully connected baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..parallel import sat_cell, solve_sat_tasks
from .report import format_table
from .suites import BenchPreset, QUICK, figure4_grid, mesh_for, sat_suite, with_seed

__all__ = [
    "Figure4Point",
    "Figure4Result",
    "run_figure4",
    "render_figure4",
    "figure4_to_dict",
]


class Figure4Point:
    """One data point: a configuration at one machine size."""

    __slots__ = ("label", "kind", "mapper", "requested_cores", "actual_cores",
                 "mean_ct", "performance", "mean_sent")

    def __init__(self, label, kind, mapper, requested_cores, actual_cores,
                 mean_ct, mean_sent):
        self.label = label
        self.kind = kind
        self.mapper = mapper
        self.requested_cores = requested_cores
        self.actual_cores = actual_cores
        self.mean_ct = mean_ct
        #: the paper's y-axis: 1 / mean computation time
        self.performance = 1.0 / mean_ct if mean_ct > 0 else float("inf")
        self.mean_sent = mean_sent


class Figure4Result:
    """All points of one sweep, grouped by series label."""

    def __init__(self, preset: BenchPreset, points: List[Figure4Point]):
        self.preset = preset
        self.points = points
        #: summary of the representative traced cell (``trace_path`` runs)
        self.trace_summary: Optional[Dict[str, object]] = None

    def series(self, label: str) -> List[Figure4Point]:
        """Points of one curve, ordered by machine size."""
        return sorted(
            (p for p in self.points if p.label == label),
            key=lambda p: p.actual_cores,
        )

    def labels(self) -> List[str]:
        """Series labels in plot order."""
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.label, None)
        return list(seen)

    def performance_at_scale(self, label: str) -> float:
        """Performance of a curve's largest machine (saturation value)."""
        pts = self.series(label)
        if not pts:
            raise KeyError(f"no series {label!r}")
        return pts[-1].performance


def run_figure4(
    preset: BenchPreset = QUICK,
    *,
    status_threshold: Optional[int] = 16,
    simplify: str = "none",
    heuristic: str = "max_occurrence",
    verbose: bool = False,
    jobs: Optional[int] = None,
    trace_path: Optional[str] = None,
    seed: Optional[int] = None,
) -> Figure4Result:
    """Sweep the Figure-4 grid and return all data points.

    ``status_threshold`` applies to the adaptive (LBN) runs only and models
    the explicit status traffic that makes adaptivity costly on small
    machines; ``None`` runs LBN with free piggybacking only.

    ``simplify="none"`` is the calibrated default: it reproduces the
    workload *scale* of the paper's published traces (see EXPERIMENTS.md).

    ``jobs`` fans the independent ``(series, machine size, problem)`` cells
    out over a process pool (see :mod:`repro.parallel`); every cell is a
    separately seeded simulation, so the result is bit-identical to a
    serial run regardless of worker count.

    ``trace_path`` additionally captures one representative cell — the
    largest 2D-torus + LBN configuration on problem 0 — with a full
    telemetry pipeline and writes a Chrome/Perfetto trace there.  The
    traced run happens in-process after the sweep (telemetry buses do not
    cross the process-pool boundary), so it never perturbs the sweep
    numbers; its summary lands in :attr:`Figure4Result.trace_summary`.

    ``seed`` overrides the preset's pinned base seed (problem suite and
    per-cell machine seeds alike); the default ``None`` keeps the preset's
    seed, which reproduces the committed JSON baselines bit-for-bit.
    """
    preset = with_seed(preset, seed)
    # flatten the sweep: one cell per (series, machine size), one task per
    # (cell, problem); the pool returns outcomes in task order, so the
    # aggregation below is independent of scheduling.  The grid itself
    # lives in suites.py, where the preset also names each run's RunSpec.
    cells, tasks, task_cells = figure4_grid(
        preset,
        status_threshold=status_threshold,
        simplify=simplify,
        heuristic=heuristic,
    )

    outcomes = solve_sat_tasks(tasks, jobs=jobs)

    cts: List[List[int]] = [[] for _ in cells]
    sents: List[List[int]] = [[] for _ in cells]
    for (cell, i), out in zip(task_cells, outcomes):
        if not out.verified:
            topo = cells[cell][4]
            raise AssertionError(
                f"unverified SAT model for problem {i} on {topo.describe()}"
            )
        cts[cell].append(out.computation_time)
        sents[cell].append(out.sent_total)

    points: List[Figure4Point] = []
    for cell, (label, kind, mapper, n_cores, topo) in enumerate(cells):
        point = Figure4Point(
            label,
            kind,
            mapper,
            n_cores,
            topo.n_nodes,
            sum(cts[cell]) / len(cts[cell]),
            sum(sents[cell]) / len(sents[cell]),
        )
        points.append(point)
        if verbose:
            print(
                f"  {label:18s} n={topo.n_nodes:5d} "
                f"ct={point.mean_ct:8.1f} perf={point.performance:.5f}",
                flush=True,
            )
    result = Figure4Result(preset, points)
    if trace_path is not None:
        from ..telemetry import capture_sat_trace

        trace_topo = mesh_for("torus2d", max(preset.core_counts))
        result.trace_summary = capture_sat_trace(
            sat_cell(
                sat_suite(preset)[0],
                trace_topo,
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


def assert_figure4_shape(result: Figure4Result) -> None:
    """Assert the paper's qualitative Figure-4 claims on regenerated data.

    Raises :class:`AssertionError` naming the violated claim.  Used by both
    the benchmark entry point and the harness tests.
    """
    for label in result.labels():
        pts = result.series(label)
        assert pts[-1].performance > pts[0].performance, (
            f"{label}: performance did not rise with core count"
        )
    full = result.performance_at_scale("Fully connected")
    for label in result.labels():
        if label != "Fully connected":
            assert full >= 0.95 * result.performance_at_scale(label), (
                f"fully connected is not the upper envelope vs {label}"
            )
    for mapper in ("RR", "LBN"):
        p2 = result.performance_at_scale(f"2D Torus + {mapper}")
        p3 = result.performance_at_scale(f"3D Torus + {mapper}")
        assert p3 > p2, f"3D does not beat 2D at scale under {mapper}"
    for dim in ("2D", "3D"):
        rr0 = result.series(f"{dim} Torus + RR")[0]
        lbn0 = result.series(f"{dim} Torus + LBN")[0]
        assert lbn0.performance < rr0.performance, (
            f"adaptive mapping did not hurt the smallest {dim} machine"
        )
    assert result.performance_at_scale("2D Torus + LBN") > result.performance_at_scale(
        "2D Torus + RR"
    ), "adaptive mapping did not win at scale in 2D"
    assert result.performance_at_scale("3D Torus + LBN") >= 0.7 * full, (
        "3D adaptive did not approach the fully connected baseline"
    )


def figure4_to_dict(result: Figure4Result) -> Dict[str, object]:
    """Figure-4 data as a JSON-ready dict (see ``repro.bench.report``).

    One entry per series, points ordered by machine size — the exact rows
    :func:`render_figure4` tabulates, machine-readable for baselines.
    """
    return {
        "figure": "figure4",
        "preset": {
            "name": result.preset.name,
            "n_problems": result.preset.n_problems,
            "core_counts": list(result.preset.core_counts),
            "seed": result.preset.seed,
        },
        "series": {
            label: [
                {
                    "requested_cores": p.requested_cores,
                    "actual_cores": p.actual_cores,
                    "mean_computation_time": p.mean_ct,
                    "performance": p.performance,
                    "mean_sent": p.mean_sent,
                }
                for p in result.series(label)
            ]
            for label in result.labels()
        },
    }


def render_figure4(result: Figure4Result) -> str:
    """Print Figure 4 as a table: one row per (series, machine size)."""
    rows = []
    for label in result.labels():
        for p in result.series(label):
            rows.append(
                [label, p.actual_cores, round(p.mean_ct, 1),
                 round(p.performance, 6), round(p.mean_sent)]
            )
    table = format_table(
        ["series", "cores", "mean computation time", "performance (1/ct)", "mean msgs"],
        rows,
        title=(
            f"Figure 4 — SAT solver scalability ({result.preset.n_problems} "
            "problems/point, uf20-91 stand-in suite)"
        ),
    )
    return table + "\n\n" + render_figure4_analysis(result)


def render_figure4_analysis(result: Figure4Result) -> str:
    """Derived scalability metrics: saturation points, crossovers, Amdahl.

    Quantifies the prose the paper attaches to Figure 4 — where each curve
    stops scaling and where adaptive mapping overtakes static.
    """
    from ..analysis import amdahl_fit, crossover_point, saturation_point

    lines = ["analysis:"]
    series = {
        label: [(p.actual_cores, p.performance) for p in result.series(label)]
        for label in result.labels()
    }
    for label, pts in series.items():
        sat = saturation_point(pts)
        serial, _ = amdahl_fit(pts) if len(pts) > 1 else (float("nan"), 0.0)
        lines.append(
            f"  {label:18s} saturates at ~{sat} cores "
            f"(Amdahl serial fraction ~{serial:.3f})"
        )
    for dim in ("2D", "3D"):
        cross = crossover_point(
            series[f"{dim} Torus + LBN"], series[f"{dim} Torus + RR"]
        )
        where = f"~{cross} cores" if cross is not None else "never (on this grid)"
        lines.append(f"  {dim}: adaptive overtakes static at {where}")
    return "\n".join(lines)
