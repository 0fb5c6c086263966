"""In-memory subscriber: the event log.

:class:`EventLog` records every event for queries in tests and notebooks.
Layer 1's :class:`~repro.netsim.trace.TraceRecorder` is *not* a bus
subscriber: it is the always-on accountant of the paper's three §V-C
metrics, driven directly by the machine so that a run needs no bus to
have a report (``tests/telemetry/test_bus.py`` pins that the layer-1
event stream carries the same totals).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .events import TelemetryEvent

__all__ = ["EventLog"]


class EventLog:
    """Append-only event recorder with simple query helpers."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[TelemetryEvent] = []

    def on_event(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def layers(self) -> List[int]:
        """Distinct layers that emitted, ascending."""
        return sorted({ev.layer for ev in self.events})

    def names(self, layer: Optional[int] = None) -> List[str]:
        """Distinct event names (optionally restricted to one layer)."""
        return sorted(
            {ev.name for ev in self.events if layer is None or ev.layer == layer}
        )

    def by_layer(self, layer: int) -> List[TelemetryEvent]:
        return [ev for ev in self.events if ev.layer == layer]

    def by_name(self, name: str, layer: Optional[int] = None) -> List[TelemetryEvent]:
        return [
            ev
            for ev in self.events
            if ev.name == name and (layer is None or ev.layer == layer)
        ]

    def count(self, name: str, layer: Optional[int] = None) -> int:
        return len(self.by_name(name, layer))

    def counts(self) -> Dict[str, int]:
        """``{"l{layer}.{name}": count}`` for every event kind seen."""
        out: Dict[str, int] = {}
        for ev in self.events:
            key = f"l{ev.layer}.{ev.name}"
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def filter(self, predicate: Callable[[TelemetryEvent], bool]) -> List[TelemetryEvent]:
        return [ev for ev in self.events if predicate(ev)]
