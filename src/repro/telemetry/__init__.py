"""``repro.telemetry`` — cross-layer observability for the stack.

A structured event bus that all five layers publish to, with typed metrics,
an in-memory event log, and exporters for Chrome trace-event JSON
(``chrome://tracing`` / Perfetto) and metrics dumps.  The governing rule is
**zero overhead when disabled**: every instrumentation site in the stack is
guarded by a single ``if <telemetry> is not None`` check, so a simulation
without a bus runs the exact PR-1 optimized hot paths (see
``docs/observability.md`` for the measured numbers).

Quick assembly::

    from repro import HyperspaceStack, Torus
    from repro.telemetry import TelemetryBus, ChromeTraceExporter, EventLog

    bus = TelemetryBus()
    log = bus.attach(EventLog())
    exporter = bus.attach(ChromeTraceExporter())
    stack = HyperspaceStack(Torus((8, 8)), telemetry=bus)
    ...
    exporter.write("trace.json")          # open in https://ui.perfetto.dev

CLI: ``python -m repro trace <workload> --out trace.json`` runs a packaged
workload with full-stack tracing (see :mod:`repro.telemetry.capture`).
"""

from .bus import TelemetryBus
from .events import (
    L1_NETSIM,
    L2_SCHED,
    L3_MAPPING,
    L4_RECURSION,
    L5_APP,
    LAYER_NAMES,
    TelemetryEvent,
)
from .export import (
    ChromeTraceExporter,
    write_metrics,
    write_metrics_csv,
    write_metrics_json,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, MetricsSubscriber
from .probe import (
    active_probe_bus,
    install_probes,
    probe,
    probe_enabled,
    probes_to,
    uninstall_probes,
)
from .recorder import EventLog

__all__ = [
    "TelemetryBus",
    "TelemetryEvent",
    "L1_NETSIM",
    "L2_SCHED",
    "L3_MAPPING",
    "L4_RECURSION",
    "L5_APP",
    "LAYER_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSubscriber",
    "EventLog",
    "ChromeTraceExporter",
    "write_metrics",
    "write_metrics_json",
    "write_metrics_csv",
    "probe",
    "probe_enabled",
    "install_probes",
    "uninstall_probes",
    "active_probe_bus",
    "probes_to",
    "capture_workload",
    "capture_sat_trace",
    "resolve_workload",
]


def __getattr__(name):  # lazy: capture pulls in apps/stack, avoid cycles
    if name in ("capture_workload", "capture_sat_trace", "resolve_workload"):
        from . import capture

        return getattr(capture, name)
    raise AttributeError(f"module 'repro.telemetry' has no attribute {name!r}")
