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
"""

from .envelopes import CancelMsg, ReplyMsg, StatusMsg, WorkMsg
from .functional import TicketedFunctionalApp
from .mappers import (
    MAPPERS,
    HintAwareMapper,
    LeastBusyNeighbourMapper,
    MapperView,
    RandomMapper,
    RoundRobinMapper,
    mapper_class,
)
from .service import MappedApp, MappingContext, MappingService, queue_depth_load
from .tickets import ReplyHandle, Ticket

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
