"""Packaged traced workloads (the ``repro trace`` CLI and bench wiring).

:func:`capture_workload` runs one named workload with a fully wired
telemetry pipeline — bus + Chrome-trace exporter + metrics — and writes the
artifacts; :func:`capture_sat_trace` does the same for a single SAT sweep
cell (used by the figure benches and ``record_baseline.py --trace``).

Workload names accept either a registry key (``sat``, ``sumrec``, ``fib``,
``nqueens``, ``traversal``) or a path to one of the repository's example
scripts (``examples/sat_solver.py``) — the basename is mapped to the
workload the script demonstrates, so ``repro trace examples/<any>.py``
always produces a representative trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..apps.sat import uf20_91_suite
from ..engine import RunSpec, execute
from ..topology import spec_of, topology_from_spec
from ..workloads import WORKLOADS as RECORDS
from .bus import TelemetryBus
from .export import ChromeTraceExporter, write_metrics
from .metrics import MetricsSubscriber

__all__ = ["WORKLOADS", "capture_workload", "capture_sat_trace"]

#: name -> (description, default topology spec, ``seed -> RunSpec``); the
#: capture fills in the spec's topology and seed
WORKLOADS: Dict[str, Tuple[str, str, Callable[[int], RunSpec]]] = {
    "sat": (
        "distributed DPLL on one uf20-91 instance (all 5 layers + probes)",
        "torus2d:14x14",
        lambda seed: RunSpec(
            workload="sat",
            workload_params=uf20_91_suite(1, seed=seed)[0].to_params(),
            mapper="lbn",
            status=16,
        ),
    ),
    "sumrec": (
        "the paper's Listing-3 recursive sum (layers 1-4)",
        "torus2d:8x8",
        lambda seed: RunSpec(
            workload="sumrec", workload_params={"n": 60}, drain=False
        ),
    ),
    "fib": (
        "fork-join Fibonacci (layers 1-4, fixed fan-out)",
        "torus2d:8x8",
        lambda seed: RunSpec(workload="fib", workload_params={"n": 13}, drain=False),
    ),
    "nqueens": (
        "6-queens via non-deterministic choice (layers 1-4)",
        "torus2d:8x8",
        lambda seed: RunSpec(
            workload="nqueens", workload_params={"n": 6}, mapper="lbn", drain=False
        ),
    ),
    "traversal": (
        "Listing-1 mesh flood fill (layer 1 only)",
        "torus2d:20x20",
        lambda seed: RunSpec(workload="traversal", workload_params={}),
    ),
}

#: example script basename -> workload key (``repro trace examples/<any>.py``)
_EXAMPLE_ALIASES: Dict[str, str] = {
    "quickstart": "sumrec",
    "layers_tour": "sumrec",
    "sat_solver": "sat",
    "scalability_sweep": "sat",
    "unfolding_heatmap": "sat",
    "combinatorial_zoo": "nqueens",
    "nqueens_mesh": "nqueens",
    "topology_playground": "traversal",
}

def resolve_workload(name: str) -> str:
    """Map a workload name or ``examples/`` path to a registry key."""
    if name in WORKLOADS:
        return name
    stem = Path(name).stem
    if stem in WORKLOADS:
        return stem
    alias = _EXAMPLE_ALIASES.get(stem)
    if alias is not None:
        return alias
    known = ", ".join(sorted(WORKLOADS))
    raise ValueError(f"unknown trace workload {name!r} (known: {known})")


def _run_traced(spec, topology, out, metrics_path) -> Tuple[Any, Dict[str, Any]]:
    """Run ``spec`` under a fresh bus + Chrome-trace exporter + metrics and
    write the artifacts; returns the run and the artifact summary."""
    bus = TelemetryBus()
    exporter = bus.attach(ChromeTraceExporter())
    metrics = bus.attach(MetricsSubscriber())
    run = execute(spec, topology=topology, telemetry=bus)
    artifacts: Dict[str, Any] = {
        "events": len(exporter),
        "layers": exporter.layers(),
        "trace_path": str(exporter.write(out)),
    }
    if metrics_path is not None:
        artifacts["metrics_path"] = str(write_metrics(metrics.registry, metrics_path))
    return run, artifacts


def capture_workload(
    workload: str,
    out: Union[str, Path],
    *,
    metrics_path: Optional[Union[str, Path]] = None,
    topology: Optional[str] = None,
    seed: int = 2017,
) -> Dict[str, Any]:
    """Run ``workload`` traced; write the Perfetto trace (and metrics).

    Returns a summary dict: the workload result plus event/layer counts and
    the artifact paths.
    """
    key = resolve_workload(workload)
    description, default_topo, make_spec = WORKLOADS[key]
    topo = topology_from_spec(topology or default_topo)
    spec = make_spec(seed).with_(topology=spec_of(topo), seed=seed)
    run, artifacts = _run_traced(spec, topo, out, metrics_path)
    mismatch = RECORDS[key].verify(spec.workload_params, topo, run.verdict)
    return {
        "workload": key,
        "description": description,
        "topology": topo.describe(),
        "seed": seed,
        "result": {
            "result": repr(run.result),
            "verified": mismatch is None,
            "computation_time": run.report.computation_time,
            "sent": run.report.sent_total,
        },
        **artifacts,
    }


def capture_sat_trace(
    task,
    out: Union[str, Path],
    *,
    metrics_path: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Trace one SAT sweep cell (the figure benches' representative run).

    Runs the :class:`~repro.parallel.SatCell`'s
    :class:`repro.engine.RunSpec` with a fresh telemetry pipeline and
    writes the Chrome trace — the profiling lens of the paper's §V-C,
    per event instead of per aggregate.
    """
    run, artifacts = _run_traced(task.spec, task.topology, out, metrics_path)
    return {
        "topology": task.topology.describe(),
        "mapper": task.spec.mapper,
        "satisfiable": bool(run.verdict["sat"]),
        "computation_time": run.report.computation_time,
        **artifacts,
    }
