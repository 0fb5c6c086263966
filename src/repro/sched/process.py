"""Layer 2 process abstraction (paper §III-A2).

"This layer maintains a number of concurrent processes that communicate via
the message passing functions provided by layer 1.  Each process has a state
that is initialized at startup and then transformed by a handler function
when a message is received."

Processes are addressed by ``(node, pid)`` pairs; :class:`ProcessContext`
lets a process send to any process on its own node (local, no network) or to
processes on *neighbouring* nodes (via layer 1).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, Protocol, Sequence, runtime_checkable

from ..topology import NodeId

__all__ = ["Address", "ProcessContext", "Process", "FunctionalProcess"]


class Address(NamedTuple):
    """Global process address."""

    node: NodeId
    pid: int


class ProcessContext:
    """Per-process view of the machine.

    Attributes
    ----------
    address:
        This process's ``(node, pid)``.
    neighbours:
        Adjacent node ids (topology order).
    send:
        ``send(dst_address, payload)`` — local if ``dst.node`` equals this
        node, otherwise routed over the mesh (destination must be adjacent).
    state:
        Arbitrary process state slot.
    peers:
        ``peers[node]`` is this pid's address on ``node``, for every node of
        the machine: one shared table, so a send need not build an address.
    """

    __slots__ = ("address", "neighbours", "send", "state", "peers", "_scheduler_ctx")

    def __init__(
        self,
        address: Address,
        neighbours: Sequence[NodeId],
        send: Callable[[Address, Any], None],
        scheduler_ctx: Any,
        peers: Sequence[Address],
    ) -> None:
        self.address = address
        self.neighbours = tuple(neighbours)
        self.send = send
        self.state: Any = None
        self.peers = peers
        self._scheduler_ctx = scheduler_ctx

    @property
    def node(self) -> NodeId:
        """Node this process lives on."""
        return self.address.node

    @property
    def pid(self) -> int:
        """Process id, unique within the node."""
        return self.address.pid

    @property
    def step(self) -> int:
        """Current simulation step."""
        return self._scheduler_ctx.step

    @property
    def machine(self) -> Any:
        """The owning machine (for ``halt`` and inspection services)."""
        return self._scheduler_ctx.machine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessContext({self.address})"


@runtime_checkable
class Process(Protocol):
    """Code run by one layer-2 process.

    A single :class:`Process` instance may serve every node (stateless
    templates storing everything in ``ctx.state``) or be instantiated per
    node — the scheduler calls these two methods, plus an optional
    ``release(ctx)`` once per process when the machine closes: it drops
    whatever the process state links back to, and the scheduler clears
    ``ctx.state`` after it either way.
    """

    def init(self, ctx: ProcessContext) -> None:
        """Initialise ``ctx.state``; called once at machine startup."""
        ...

    def on_message(self, ctx: ProcessContext, sender: Optional[Address], payload: Any) -> None:
        """Handle one delivered message.

        ``sender`` is ``None`` for externally injected (kickstart) messages.
        """
        ...


class FunctionalProcess:
    """Adapt plain functions to the :class:`Process` protocol."""

    __slots__ = ("_init_fn", "_handler")

    def __init__(
        self,
        handler: Callable[[ProcessContext, Optional[Address], Any], None],
        init_fn: Optional[Callable[[ProcessContext], None]] = None,
    ) -> None:
        self._handler = handler
        self._init_fn = init_fn

    def init(self, ctx: ProcessContext) -> None:
        if self._init_fn is not None:
            self._init_fn(ctx)

    def on_message(
        self, ctx: ProcessContext, sender: Optional[Address], payload: Any
    ) -> None:
        self._handler(ctx, sender, payload)
