"""Layer-5 application probes.

Layer-5 code is a plain generator function — it has no context handle to
thread a bus through, and instrumenting a solver must not change its
signature.  Probes therefore go through a module-level *active bus*:

* :class:`~repro.stack.HyperspaceStack` installs its bus (plus a
  step-clock and the executing node, maintained by layer 4) around each
  run;
* application code calls :func:`probe` anywhere; with no bus installed it
  is a no-op costing one attribute load and one ``is None`` test.

Example (this is exactly how the distributed DPLL solver is instrumented)::

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
from typing import Any, Callable, Optional

from .bus import TelemetryBus
from .events import L5_APP

__all__ = [
    "probe",
    "probe_enabled",
    "install_probes",
    "uninstall_probes",
    "active_probe_bus",
    "set_probe_node",
    "probes_to",
]

#: [bus, step_fn, current node] — a list so hot updates rebind one slot
_state: list = [None, None, -1]


def install_probes(
    bus: TelemetryBus, step_fn: Optional[Callable[[], int]] = None
) -> None:
    """Route :func:`probe` calls to ``bus``; ``step_fn`` supplies the clock."""
    if _state[0] is not None and _state[0] is not bus:
        raise RuntimeError("another telemetry bus already has probes installed")
    _state[0] = bus
    _state[1] = step_fn
    _state[2] = -1


def uninstall_probes() -> None:
    """Disconnect probes (safe to call when none are installed)."""
    _state[0] = None
    _state[1] = None
    _state[2] = -1


def active_probe_bus() -> Optional[TelemetryBus]:
    """The currently installed bus, or ``None``."""
    return _state[0]


def probe_enabled() -> bool:
    """True when a bus is installed (for guarding expensive attr building)."""
    return _state[0] is not None


def set_probe_node(node: int) -> None:
    """Attribute subsequent probes to ``node`` (layer 4 calls this while
    driving a generator, so probes land on the executing node's track)."""
    _state[2] = node


def probe(name: str, **attrs: Any) -> None:
    """Emit a layer-5 instant event, or do nothing when telemetry is off."""
    bus = _state[0]
    if bus is None:
        return
    if not bus.want_events:
        # an aggregator reads only (layer, name): no clock, node or attrs
        bus.emit(L5_APP, name, 0)
        return
    step_fn = _state[1]
    bus.emit(
        L5_APP,
        name,
        step_fn() if step_fn is not None else 0,
        _state[2],
        attrs=attrs or None,
    )


@contextmanager
def probes_to(bus: TelemetryBus, step_fn: Optional[Callable[[], int]] = None):
    """Context manager: install probes for the duration of a block."""
    install_probes(bus, step_fn)
    try:
        yield bus
    finally:
        uninstall_probes()
