"""Layer-3 wire envelopes.

Everything the mapping services of two nodes exchange is one of these four
message kinds.  Each envelope piggybacks the sender's total received-message
count (``sender_count``) — the information channel the least-busy-neighbour
mapper feeds on ("Embed a count of total messages received in all outgoing
messages", paper §V-D).
"""

from __future__ import annotations

from typing import Any, Tuple

from ..topology import NodeId
from .tickets import Ticket

__all__ = ["WorkMsg", "ReplyMsg", "StatusMsg", "CancelMsg"]


class WorkMsg:
    """A delegated sub-problem travelling to (or through) a worker node.

    ``path`` records the nodes the work has visited starting at the issuer;
    replies retrace it in reverse.  ``hops_left`` > 0 lets forwarding mappers
    push work deeper into the mesh before it executes.
    """

    __slots__ = ("ticket", "payload", "hint", "path", "hops_left", "sender_count")

    def __init__(
        self,
        ticket: Ticket,
        payload: Any,
        hint: Any,
        path: Tuple[NodeId, ...],
        hops_left: int,
        sender_count: int,
    ) -> None:
        self.ticket = ticket
        self.payload = payload
        self.hint = hint
        self.path = path
        self.hops_left = hops_left
        self.sender_count = sender_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkMsg({self.ticket!r}, path={list(self.path)})"


class ReplyMsg:
    """A sub-problem result retracing the work's path back to its issuer.

    ``route`` holds the remaining hops; the node that pops the last element
    is the issuer and consumes the reply.
    """

    __slots__ = ("ticket", "payload", "route", "sender_count")

    def __init__(
        self,
        ticket: Ticket,
        payload: Any,
        route: Tuple[NodeId, ...],
        sender_count: int,
    ) -> None:
        self.ticket = ticket
        self.payload = payload
        self.route = route
        self.sender_count = sender_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplyMsg({self.ticket!r}, route={list(self.route)})"


class StatusMsg:
    """Explicit activity broadcast (the adaptive mapper's overhead).

    Sent to every neighbour when a node's received count has moved by at
    least the service's ``status`` threshold since its last broadcast (see
    :class:`~repro.mapping.MappingService`).  These messages take real queue
    slots, which is the overhead that makes adaptive mapping a net loss on
    small machines in the paper's Figure 4.
    """

    __slots__ = ("sender_count",)

    def __init__(self, sender_count: int) -> None:
        self.sender_count = sender_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatusMsg(count={self.sender_count})"


class CancelMsg:
    """Cancellation of previously delegated work (extension, paper §IV-C).

    Routed along the same forwarding chain the work took; every relay looks
    the ticket up in its forwarding table.
    """

    __slots__ = ("ticket", "sender_count")

    def __init__(self, ticket: Ticket, sender_count: int) -> None:
        self.ticket = ticket
        self.sender_count = sender_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancelMsg({self.ticket!r})"
