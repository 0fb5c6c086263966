"""Layer-5 application probes.

Layer-5 code is a plain generator function — it has no context handle to
thread a bus through, and instrumenting a solver must not change its
signature.  Probes therefore go through a module-level *active bus*:

* :class:`~repro.stack.HyperspaceStack` (or a shard worker) installs its
  bus around each run, and :func:`probe` stamps the bus's cursor — the
  step and node of the scheduler drain running the generator;
* application code calls :func:`probe` anywhere; with no bus installed it
  is a no-op costing one attribute load and one ``is None`` test.

A solver on the hot path publishes without a call: it reads this module's
``installed`` and, with a bus, bumps its instant's tally slot and stages
the event only for an audience that keeps events (see
:data:`~repro.telemetry.events.TALLIED`; the DPLL solver does this).

Example (a solver probing each branch)::

    from repro import telemetry

    def my_solver(problem):
        ...
        telemetry.probe("my.branch", var=var, depth=len(model))
        yield Choice(...)

The installed state is process-global (the simulator is single-threaded by
design); nested installs are rejected so two concurrently *running* stacks
in one process cannot interleave their probe streams silently.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Optional

from .bus import TelemetryBus
from .events import L5_APP

__all__ = [
    "probe",
    "probe_enabled",
    "install_probes",
    "uninstall_probes",
    "active_probe_bus",
    "probes_to",
]

#: the bus :func:`probe` publishes to, or ``None``
installed: Optional[TelemetryBus] = None


def install_probes(bus: TelemetryBus) -> None:
    """Route :func:`probe` calls to ``bus``."""
    global installed
    if installed is not None and installed is not bus:
        raise RuntimeError("another telemetry bus already has probes installed")
    installed = bus


def uninstall_probes() -> None:
    """Disconnect probes (safe to call when none are installed)."""
    global installed
    installed = None


def active_probe_bus() -> Optional[TelemetryBus]:
    """The currently installed bus, or ``None``."""
    return installed


def probe_enabled() -> bool:
    """True when a bus is installed (for guarding expensive attr building)."""
    return installed is not None


def probe(name: str, **attrs: Any) -> None:
    """Emit a layer-5 instant event, or do nothing when telemetry is off."""
    bus = installed
    if bus is not None:
        bus.emit(L5_APP, name, bus.step, bus.node, attrs=attrs or None)


@contextmanager
def probes_to(bus: TelemetryBus):
    """Context manager: install probes for the duration of a block."""
    install_probes(bus)
    try:
        yield bus
    finally:
        uninstall_probes()
