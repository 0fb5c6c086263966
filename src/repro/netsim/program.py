"""Node program interface for the layer-1 simulator.

A :class:`NodeProgram` is the code every node runs: ``init`` builds the
per-node state and ``on_message`` transforms it when a message is delivered.
This mirrors the paper's §IV-A backend exactly — compare the paper's
Listing 1 with :func:`repro.apps.traversal.traversal_program`.

Two styles are supported:

* subclass :class:`NodeProgram` (used by the stacked layers), or
* wrap plain ``init`` / ``receive`` functions with :class:`FunctionalProgram`,
  whose ``receive`` signature matches the paper's listing:
  ``receive(node, state, sender, msg, send, neighbours)``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, Sequence, runtime_checkable

from ..topology import NodeId

__all__ = ["SendFn", "NodeContext", "NodeProgram", "FunctionalProgram", "release_states"]

#: Signature of the send handler passed to node code: ``send(dst, payload)``.
SendFn = Callable[[NodeId, Any], None]


class NodeContext:
    """Per-node view of the machine handed to node programs.

    Attributes
    ----------
    node:
        This node's id.
    neighbours:
        Ordered tuple of adjacent node ids (order fixed by the topology).
    send:
        Enqueue ``payload`` for a neighbouring node.  Messages sent while
        handling step *t* cannot be delivered before step *t+1*.
    state:
        Arbitrary application state slot (set by ``init``).
    """

    __slots__ = ("node", "neighbours", "send", "state", "_machine")

    def __init__(
        self,
        node: NodeId,
        neighbours: Sequence[NodeId],
        send: SendFn,
        machine: "Any",
    ) -> None:
        self.node = node
        self.neighbours = tuple(neighbours)
        self.send = send
        self.state: Any = None
        self._machine = machine

    @property
    def step(self) -> int:
        """Current simulation step (``-1`` during ``init``)."""
        return self._machine.current_step

    @property
    def machine(self) -> Any:
        """The owning :class:`~repro.netsim.backend.Machine` (for services
        like :meth:`~repro.netsim.backend.Machine.request_poll` and
        :meth:`~repro.netsim.backend.Machine.halt`)."""
        return self._machine

    @property
    def n_nodes(self) -> int:
        """Total number of nodes in the machine."""
        return self._machine.topology.n_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeContext(node={self.node}, step={self.step})"


@runtime_checkable
class NodeProgram(Protocol):
    """Code run by every node of a simulated machine.

    A program may also define ``release(ctx)``, called once per node when
    the machine closes (as ``on_step`` it is optional): it drops whatever
    the node's state links back to, so the finished run is freed by
    reference counting instead of waiting for the cycle collector.  The
    machine clears ``ctx.state`` after it either way.
    """

    def init(self, ctx: NodeContext) -> None:
        """Initialise ``ctx.state``; called once per node before step 0."""
        ...

    def on_message(self, ctx: NodeContext, sender: NodeId, payload: Any) -> None:
        """Handle one delivered message (the paper's ``receive`` handler)."""
        ...


class FunctionalProgram:
    """Adapt paper-style ``init`` / ``receive`` functions to the protocol.

    ``init_fn(node) -> state`` and
    ``receive_fn(node, state, sender, msg, send, neighbours) -> state | None``
    — if ``receive_fn`` returns a non-``None`` value it replaces the state,
    otherwise in-place mutation is assumed (both styles appear in the paper's
    listings).
    """

    __slots__ = ("_init_fn", "_receive_fn")

    def __init__(
        self,
        init_fn: Optional[Callable[[NodeId], Any]],
        receive_fn: Callable[..., Any],
    ) -> None:
        self._init_fn = init_fn
        self._receive_fn = receive_fn

    def init(self, ctx: NodeContext) -> None:
        ctx.state = self._init_fn(ctx.node) if self._init_fn is not None else None

    def on_message(self, ctx: NodeContext, sender: NodeId, payload: Any) -> None:
        new_state = self._receive_fn(
            ctx.node, ctx.state, sender, payload, ctx.send, ctx.neighbours
        )
        if new_state is not None:
            ctx.state = new_state


def release_states(program: Any, contexts: Sequence[NodeContext]) -> None:
    """Run ``program.release(ctx)`` (when defined) and clear ``ctx.state``
    for every context: the per-node half of closing a machine."""
    release = getattr(program, "release", None)
    for ctx in contexts:
        if release is not None:
            release(ctx)
        ctx.state = None
