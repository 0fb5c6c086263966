"""ASCII and JSON rendering utilities for benchmark reports.

The harness prints the same rows/series the paper's figures plot: tables of
performance versus core count (Figure 4), activity time series and mesh
heatmaps (Figure 5).  Everything renders to plain text so results live in
logs and CI output; :func:`format_json` / :func:`write_json` emit the same
data machine-readably for baselines and regression tracking.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "format_table",
    "sparkline",
    "heatmap_ascii",
    "format_series_block",
    "json_default",
    "format_json",
    "write_json",
]

_SPARK_CHARS = " .:-=+*#%@"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table with right-aligned numeric columns."""

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) < 0.01 or abs(cell) >= 100000:
                return f"{cell:.3e}"
            return f"{cell:.4g}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Compress a series into a one-line density sparkline."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return ""
    if arr.size > width:
        # bucket means so long traces still fit on one line
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array(
            [arr[a:b].mean() if b > a else 0.0 for a, b in zip(edges, edges[1:])]
        )
    top = arr.max()
    if top <= 0:
        return " " * len(arr)
    scale = len(_SPARK_CHARS) - 1
    return "".join(_SPARK_CHARS[int(round(v / top * scale))] for v in arr)


def heatmap_ascii(grid: "np.ndarray", width: int = 2) -> str:
    """Render a 2D integer grid as a digit heatmap (0-9 scaled to max).

    3D grids are rendered as stacked 2D slices.
    """
    grid = np.asarray(grid)
    if grid.ndim == 1:
        grid = grid[None, :]
    if grid.ndim == 3:
        return "\n\n".join(
            f"[z={z}]\n" + heatmap_ascii(grid[z], width) for z in range(grid.shape[0])
        )
    if grid.ndim != 2:
        raise ValueError(f"cannot render {grid.ndim}-d heatmap")
    top = grid.max()
    lines = []
    for row in grid:
        if top <= 0:
            cells = ["." for _ in row]
        else:
            cells = [
                "." if v == 0 else str(min(9, int(math.floor(v / top * 9.0001))))
                for v in row
            ]
        lines.append(" ".join(c.rjust(width - 1) for c in cells))
    return "\n".join(lines)


def json_default(obj: Any) -> Any:
    """``json.dumps`` fallback for the numpy types benchmark data carries."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def format_json(payload: Any, indent: int = 2) -> str:
    """Serialise a benchmark payload (possibly numpy-laden) to JSON text.

    Non-finite floats (the ``inf`` performance of a zero computation time)
    are emitted as strings so the output stays standard JSON.
    """

    def sanitise(obj: Any) -> Any:
        if isinstance(obj, dict):
            return {str(k): sanitise(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [sanitise(v) for v in obj]
        if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
            return str(obj)
        return obj

    return json.dumps(sanitise(payload), indent=indent, default=json_default)


def write_json(path: Union[str, Path], payload: Any, indent: int = 2) -> Path:
    """Write a benchmark payload as JSON; returns the resolved path."""
    out = Path(path)
    out.write_text(format_json(payload, indent=indent) + "\n")
    return out


def format_series_block(
    series: Mapping[str, Sequence[float]], width: int = 60, label_width: int = 24
) -> str:
    """Render several labelled series as aligned sparklines with ranges."""
    lines = []
    for name, values in series.items():
        arr = np.asarray(list(values), dtype=np.float64)
        peak = arr.max() if arr.size else 0.0
        lines.append(
            f"{name[:label_width].ljust(label_width)} |{sparkline(arr, width)}| "
            f"peak={peak:g} len={arr.size}"
        )
    return "\n".join(lines)
