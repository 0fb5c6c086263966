"""Benchmark workload suites and machine sweeps.

Centralises the workload/machine grids the figure benches share, so the
"quick" (CI-sized) and "full" (paper-sized) variants stay consistent.
"""

from __future__ import annotations

from typing import List, Tuple

from ..apps.sat import CNF, uf20_91_suite
from ..topology import FullyConnected, Topology, Torus, nearest_mesh_dims

__all__ = [
    "BenchPreset",
    "QUICK",
    "FULL",
    "sat_suite",
    "with_seed",
    "mesh_for",
    "figure4_series",
    "figure4_grid",
    "preset_runspecs",
    "preset_fingerprint",
    "FIGURE5_TORUS_DIMS",
]


class BenchPreset:
    """Scale knobs for a figure regeneration run."""

    __slots__ = ("name", "n_problems", "core_counts", "seed", "max_steps")

    def __init__(
        self,
        name: str,
        n_problems: int,
        core_counts: Tuple[int, ...],
        seed: int = 2017,
        max_steps: int = 2_000_000,
    ) -> None:
        self.name = name
        self.n_problems = n_problems
        self.core_counts = core_counts
        self.seed = seed
        self.max_steps = max_steps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BenchPreset({self.name}, problems={self.n_problems})"


#: CI-sized preset: 6 problems, 5 machine sizes (tens of seconds)
QUICK = BenchPreset("quick", 6, (9, 27, 64, 196, 512))

#: paper-sized preset: 20 problems, 10^1..10^3 cores as in Figure 4
FULL = BenchPreset("full", 20, (9, 16, 27, 64, 125, 196, 343, 512, 729, 1000))


def sat_suite(preset: BenchPreset) -> List[CNF]:
    """The uf20-91 stand-in suite at the preset's problem count."""
    return uf20_91_suite(preset.n_problems, seed=preset.seed)


def with_seed(preset: BenchPreset, seed: "int | None") -> BenchPreset:
    """``preset`` with its base seed overridden (``None`` = keep pinned).

    The seed feeds both the problem-suite generation and every sweep
    cell's machine, so an override reruns the whole figure on a fresh but
    fully reproducible draw; the pinned default reproduces the committed
    JSON baselines.
    """
    if seed is None or seed == preset.seed:
        return preset
    return BenchPreset(
        preset.name,
        preset.n_problems,
        preset.core_counts,
        seed=seed,
        max_steps=preset.max_steps,
    )


def mesh_for(kind: str, n_cores: int) -> Topology:
    """The machine used for one Figure-4 data point.

    ``kind``: ``"torus2d"`` / ``"torus3d"`` (nearest square/cube of the
    requested size) or ``"full"``.
    """
    if kind == "torus2d":
        return Torus(nearest_mesh_dims(n_cores, 2))
    if kind == "torus3d":
        return Torus(nearest_mesh_dims(n_cores, 3))
    if kind == "full":
        return FullyConnected(n_cores)
    raise ValueError(f"unknown machine kind {kind!r}")


def figure4_series() -> List[Tuple[str, str, str]]:
    """The five curves of Figure 4 as ``(label, machine kind, mapper)``.

    The fully connected baseline uses the ``random`` mapper: on a complete
    graph a deterministic circular order degenerates into a pipeline along
    node indices, while destination-free uniform spreading is the ideal the
    paper's baseline represents (see DESIGN.md).
    """
    return [
        ("2D Torus + RR", "torus2d", "rr"),
        ("3D Torus + RR", "torus3d", "rr"),
        ("2D Torus + LBN", "torus2d", "lbn"),
        ("3D Torus + LBN", "torus3d", "lbn"),
        ("Fully connected", "full", "random"),
    ]


#: Figure 5's machine: "a 196-core 2D torus machine"
FIGURE5_TORUS_DIMS = (14, 14)


def figure4_grid(
    preset: BenchPreset,
    *,
    status_threshold: "int | None" = 16,
    simplify: str = "none",
    heuristic: str = "max_occurrence",
):
    """The flattened Figure-4 sweep: cells, tasks and their mapping.

    One *cell* per ``(series, machine size)`` (sizes that snap to the same
    square/cube mesh are deduplicated), one task per ``(cell, problem)``.
    Returns ``(cells, tasks, task_cells)`` where ``cells`` is a list of
    ``(label, kind, mapper, requested_cores, topology)`` tuples, ``tasks``
    the :class:`~repro.parallel.SatCell` list in deterministic order and
    ``task_cells`` the ``(cell index, problem index)`` pair for each task.

    This is the single place the preset's workload is spelled out; the
    figure bench executes it and :func:`preset_runspecs` names it.
    """
    from ..parallel import SatCell, sat_cell

    problems = sat_suite(preset)
    cells: List[Tuple[str, str, str, int, object]] = []
    tasks: List[SatCell] = []
    task_cells: List[Tuple[int, int]] = []
    for label, kind, mapper in figure4_series():
        status = status_threshold if mapper == "lbn" else None
        seen_sizes: "set[int]" = set()
        for n_cores in preset.core_counts:
            topo = mesh_for(kind, n_cores)
            if topo.n_nodes in seen_sizes:
                # two requested sizes snapped to the same square/cube mesh
                continue
            seen_sizes.add(topo.n_nodes)
            cell = len(cells)
            cells.append((label, kind, mapper, n_cores, topo))
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
                    )
                )
                task_cells.append((cell, i))
    return cells, tasks, task_cells


def preset_runspecs(preset: BenchPreset, **grid_kwargs):
    """Every run of the preset's Figure-4 sweep as a canonical RunSpec.

    The list is in the same deterministic order as the tasks
    :func:`~repro.bench.run_figure4` executes; each entry is the
    JSON-round-trippable :class:`repro.engine.RunSpec` the corresponding
    cell runs through :func:`repro.engine.execute`.
    """
    _cells, tasks, _task_cells = figure4_grid(preset, **grid_kwargs)
    return [task.spec for task in tasks]


def preset_fingerprint(preset: BenchPreset, **grid_kwargs) -> str:
    """One digest naming the preset's entire sweep workload.

    Changes whenever any cell's formula, machine or knob changes —
    recorded into the performance baseline so a benchmark-number drift
    can be told apart from a benchmark-*workload* drift.
    """
    from ..netsim.digest import canonical_digest

    return canonical_digest(
        [spec.to_dict() for spec in preset_runspecs(preset, **grid_kwargs)]
    )
