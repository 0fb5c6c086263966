"""The paper's running example: ``sum(n) = n + sum(n-1)`` (Listings 2 & 3).

Two implementations are provided, mirroring the paper exactly:

* :func:`calculate_sum` — the layer-5 generator of Listing 3 ("contains
  application logic only");
* :data:`sum_ticketed_app` / :func:`sum_receive` — the raw layer-3
  message-passing version of Listing 2, with its hand-rolled ``Continue`` /
  ``Done`` state machine, kept as the motivating contrast.

Note the Listing-2 version inherits the listing's limitation: one pending
evaluation per node (the node state holds a single ``Continue``).  Run it on
machines with more nodes than the recursion depth so the call chain never
revisits a node — exactly the unwieldiness layer 4 exists to hide ("likely
to become unwieldy for anything but trivial recursive functions").
"""

from __future__ import annotations

from typing import Any, NamedTuple

from ..mapping import TicketedFunctionalApp
from ..recursion import Call, Result, Sync

__all__ = [
    "calculate_sum",
    "sum_ticketed_app",
    "sum_receive",
    "SumCall",
    "SumResult",
    "SumTrigger",
    "closed_form_sum",
]


def closed_form_sum(n: int) -> int:
    """Reference value: ``sum(i for 1 <= i <= n)`` (0 for n < 1)."""
    return n * (n + 1) // 2 if n >= 1 else 0


# ---------------------------------------------------------------------------
# Listing 3: layer-5 generator style
# ---------------------------------------------------------------------------


def calculate_sum(n: int):
    """Paper Listing 3 — "An algorithm to calculate the sum 1 to N
    recursively", verbatim in layer-4 ops::

        function calculate_sum(n):
            if n < 1 then
                yield Result(0)
            else
                yield Call(n - 1)
                total <- yield Sync()
                yield Result(total + n)
    """
    if n < 1:
        yield Result(0)
    else:
        yield Call(n - 1)
        total = yield Sync()
        yield Result(total + n)


# ---------------------------------------------------------------------------
# Listing 2: raw layer-3 ticket style
# ---------------------------------------------------------------------------


class SumCall(NamedTuple):
    """Evaluation request: compute ``sum(n)``."""

    n: int


class SumResult(NamedTuple):
    """Returned evaluation: ``total`` = the computed sum."""

    total: int


class SumTrigger(NamedTuple):
    """Kickstart message: begin computing ``sum(n)`` at the receiving node."""

    n: int = 10


class _Continue(NamedTuple):
    """Listing 2's ``Continue(ticket, n)`` bookkeeping state."""

    ticket: Any
    n: int


class _Done(NamedTuple):
    """Listing 2's ``Done(total)`` terminal state."""

    total: int


def sum_receive(state: Any, ticket: Any, msg: Any, send) -> Any:
    """Paper Listing 2 — the message-passing sum, transcribed line by line.

    An incoming message is classified as (1) an evaluation call, (2) a
    returned result or (3) an initialization trigger; compare the listing's
    three branches.  Returns the new node state (functional style).
    """
    if isinstance(msg, SumCall):
        n = msg.n
        if n < 1:
            send(SumResult(0), ticket)
            return state
        sub_ticket = send(SumCall(n - 1))
        return _Continue(ticket, n)
    if isinstance(msg, SumResult):
        if isinstance(state, _Continue):
            send(SumResult(msg.total + state.n), state.ticket)
            return state
        return _Done(msg.total)
    if isinstance(msg, SumTrigger):
        send(SumCall(msg.n))
        return state
    raise ValueError(f"sum_receive cannot classify message {msg!r}")


def sum_ticketed_app() -> TicketedFunctionalApp:
    """Fresh layer-3 app hosting :func:`sum_receive` (Listing 2)."""
    return TicketedFunctionalApp(sum_receive)
