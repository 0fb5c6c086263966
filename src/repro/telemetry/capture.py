"""Packaged traced workloads (the ``repro trace`` CLI and bench wiring).

:func:`capture_workload` runs one named workload with a fully wired
telemetry pipeline — bus + Chrome-trace exporter + metrics — and writes the
artifacts; :func:`capture_sat_trace` does the same for a single SAT sweep
cell (used by the figure benches).

Workload names accept either a registry key whose record has a ``demo``
(``sat``, ``sumrec``, ``fib``, ``nqueens``, ``traversal``) or a path to
one of the repository's example scripts (``examples/sat_solver.py``) — the
basename is mapped to the workload the script demonstrates, so
``repro trace examples/<any>.py`` always produces a representative trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..engine import RunSpec, execute
from ..errors import SpecError
from ..topology import spec_of, topology_from_spec
from ..workloads import WORKLOADS
from .bus import TelemetryBus
from .export import ChromeTraceExporter, write_metrics
from .metrics import MetricsSubscriber

__all__ = ["capture_workload", "capture_sat_trace"]

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
    """Map a workload name or ``examples/`` path to a key with a ``demo``."""
    traceable = [key for key, record in WORKLOADS.items() if record.demo]
    stem = Path(name).stem
    for key in (name, stem, _EXAMPLE_ALIASES.get(stem)):
        if key in traceable:
            return key
    known = ", ".join(sorted(traceable))
    raise SpecError(f"unknown trace workload {name!r} (known: {known})")


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
    record = WORKLOADS[key]
    description, make_fields = record.demo
    fields = make_fields(seed)
    topo = topology_from_spec(topology or fields["topology"])
    spec = RunSpec(
        **{**fields, "workload": key, "topology": spec_of(topo), "seed": seed}
    )
    run, artifacts = _run_traced(spec, topo, out, metrics_path)
    mismatch = record.verify(spec.workload_params, topo, run.verdict)
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
