"""Layer 3 — problem mapping and mesh-level load balancing (paper §III-A3).

Public surface:

* :class:`MappingService` — the per-node layer-3 process.
* :class:`MappedApp` / :class:`MappingContext` — the ticketed programming
  model exposed upward.
* :class:`TicketedFunctionalApp` — the paper's Listing-2 handler style.
* Mappers: :class:`RoundRobinMapper` (static),
  :class:`LeastBusyNeighbourMapper` (adaptive), :class:`RandomMapper`,
  :class:`HintAwareMapper`, registered by name in :data:`MAPPERS`
  (``MappingService(app, mapper="lbn")``).
* Adaptivity overhead is one knob, ``MappingService(status=...)``: an int
  threshold for explicit :class:`StatusMsg` broadcasts, or ``None``.

The service-backed names load layers 1-2 with them, so they are imported
on first access: reading :data:`MAPPERS` costs no simulator import.
"""

from importlib import import_module

from .envelopes import CancelMsg, ReplyMsg, StatusMsg, WorkMsg
from .mappers import (
    MAPPERS,
    HintAwareMapper,
    LeastBusyNeighbourMapper,
    MapperView,
    RandomMapper,
    RoundRobinMapper,
    mapper_class,
)
from .tickets import ReplyHandle, Ticket

_SERVICE = ("MappingService", "MappedApp", "MappingContext", "queue_depth_load")


def __getattr__(name):  # PEP 562: the first access imports the submodule
    if name in _SERVICE or name == "TicketedFunctionalApp":
        module = ".service" if name in _SERVICE else ".functional"
        return getattr(import_module(module, __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "MappingService",
    "MappedApp",
    "queue_depth_load",
    "MappingContext",
    "TicketedFunctionalApp",
    "Ticket",
    "ReplyHandle",
    "WorkMsg",
    "ReplyMsg",
    "StatusMsg",
    "CancelMsg",
    "MapperView",
    "RoundRobinMapper",
    "LeastBusyNeighbourMapper",
    "RandomMapper",
    "HintAwareMapper",
    "MAPPERS",
    "mapper_class",
]
