"""Layer 3 — problem mapping and mesh-level load balancing (paper §III-A3).

Public surface:

* :class:`MappingService` — the per-node layer-3 process.
* :class:`MappedApp` / :class:`MappingContext` — the ticketed programming
  model exposed upward.
* :class:`TicketedFunctionalApp` — the paper's Listing-2 handler style.
* Mappers: :class:`RoundRobinMapper` (static),
  :class:`LeastBusyNeighbourMapper` (adaptive), :class:`RandomMapper`,
  :class:`HintAwareMapper`; see :func:`make_mapper_factory`.
* Adaptivity overhead is one knob, ``MappingService(status=...)``: an int
  threshold for explicit :class:`StatusMsg` broadcasts, or ``None``.
"""

from .envelopes import CancelMsg, ReplyMsg, StatusMsg, WorkMsg
from .functional import TicketedFunctionalApp
from .mappers import (
    MAPPER_NAMES,
    HintAwareMapper,
    LeastBusyNeighbourMapper,
    Mapper,
    MapperFactory,
    MapperView,
    RandomMapper,
    RoundRobinMapper,
    make_mapper_factory,
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
    "Mapper",
    "MapperFactory",
    "MapperView",
    "RoundRobinMapper",
    "LeastBusyNeighbourMapper",
    "RandomMapper",
    "HintAwareMapper",
    "make_mapper_factory",
    "MAPPER_NAMES",
]
