"""Layer 3: the mapping service (paper §III-A3, §IV-B).

:class:`MappingService` is a layer-2 :class:`~repro.sched.Process` template
hosted (at the same pid) on every node.  It gives the layer above a
destination-free message interface:

* ``mctx.call(payload)`` — "request that a message be delivered without
  specifying its destination"; the mapper picks a neighbour and a fresh
  :class:`~repro.mapping.tickets.Ticket` is returned;
* ``mctx.reply(handle, payload)`` — answer incoming work, quoting its ticket;
* incoming work and replies are delivered to the hosted
  :class:`MappedApp`'s ``on_work`` / ``on_reply`` handlers.

The service also runs the activity-estimation machinery: every outgoing
envelope piggybacks this node's received count, incoming envelopes update the
per-neighbour record, and with a ``status`` threshold a node broadcasts its
count to every neighbour once it has moved that far since the last broadcast.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..domains import judge
from ..errors import MappingError, UnknownTicketError
from ..rng import SeedSequence
from ..sched import Address, ProcessContext
from ..telemetry.events import SLOT
from ..topology import NodeId
from .envelopes import CancelMsg, ReplyMsg, StatusMsg, WorkMsg
from .mappers import MapperView, _MapperBase, mapper_class
from .tickets import ReplyHandle, Ticket

# the tally slots of the layer-3 instants
_ISSUE = SLOT[3, "ticket_issue"]
_CLAIM = SLOT[3, "ticket_claim"]
_FORWARD = SLOT[3, "ticket_forward"]
_REPLY_SENT = SLOT[3, "reply_sent"]
_REPLY_DELIVERED = SLOT[3, "reply_delivered"]
_EXTERNAL = SLOT[3, "external_result"]
_CANCEL = SLOT[3, "cancel_sent"]
_STATUS = SLOT[3, "status_broadcast"]

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..telemetry import TelemetryBus

__all__ = ["MappedApp", "MappingContext", "MappingService", "queue_depth_load"]

#: most detour hops work sharing adds to one work item (issuer included)
MAX_SHARE_HOPS = 4


def queue_depth_load(pctx: ProcessContext, app_state: Any) -> int:
    """Work-sharing load probe: this node's current inbox backlog.

    In the one-message-per-step machine the inbox depth *is* the node's
    service backlog, which makes it the natural pressure signal for work
    sharing (live-invocation counts overstate load: suspended invocations
    cost nothing until their replies arrive).
    """
    return pctx.machine.queue_depth_of(pctx.node)


class MappedApp(Protocol):
    """The layer-3 programming model: ticketed message handlers.

    "Similar to layer 2, it allows upper layers to run applications expressed
    as message handling routines.  However, it prevents communication between
    arbitrary nodes" (paper §III-A3).
    """

    def init(self, mctx: "MappingContext") -> None:
        """Initialise per-node application state (``mctx.state``)."""
        ...

    def on_work(
        self,
        mctx: "MappingContext",
        reply: Optional[ReplyHandle],
        payload: Any,
        hint: Optional[float],
    ) -> None:
        """Handle an incoming sub-problem.

        ``reply`` is the handle to quote when answering, or ``None`` when the
        payload was injected from outside the machine (a trigger) — answers
        to triggers surface through ``mctx.reply(None, value)`` as external
        results.
        """
        ...

    def on_reply(self, mctx: "MappingContext", ticket: Ticket, payload: Any) -> None:
        """Handle the result of a sub-problem this node delegated."""
        ...

    def on_cancel(self, mctx: "MappingContext", ticket: Ticket) -> None:
        """Handle cancellation of work this node is executing (optional)."""
        ...


class _MapState:
    """Per-node mapping-service state (the process-context state slot)."""

    __slots__ = (
        "view",
        "mapper",
        "last_broadcast",
        "mctx",
        "next_seq",
        "forward_table",
        "results",
    )

    def __init__(self, view: MapperView, mapper: Any):
        self.view = view
        self.mapper = mapper
        #: received count at this node's last status broadcast
        self.last_broadcast = 0
        #: the hosted app's context; its ``state`` is the app's state
        self.mctx: Optional[MappingContext] = None
        self.next_seq = 0
        #: ticket -> next hop, for routing cancellations along work paths
        self.forward_table: Dict[Ticket, NodeId] = {}
        #: results of externally triggered (root) work
        self.results: List[Any] = []


class MappingContext:
    """Layer-3 API handed to :class:`MappedApp` handlers.

    ``state`` is the application's state slot.
    """

    __slots__ = ("_service", "_pctx", "_mstate", "_machine", "state")

    def __init__(
        self, service: "MappingService", pctx: ProcessContext, mstate: _MapState
    ) -> None:
        self._service = service
        self._pctx = pctx
        self._mstate = mstate
        self._machine = pctx.machine
        self.state: Any = None

    # -- identity / environment ---------------------------------------

    @property
    def node(self) -> NodeId:
        """This node's id (for diagnostics; not usable as a destination)."""
        return self._pctx.node

    @property
    def n_neighbours(self) -> int:
        """Degree of this node (applications may tune fan-out to it)."""
        return len(self._pctx.neighbours)

    @property
    def step(self) -> int:
        """Current simulation step."""
        return self._machine.current_step

    @property
    def rng(self) -> random.Random:
        """Per-node seeded random stream."""
        return self._mstate.view.rng

    @property
    def results(self) -> List[Any]:
        """Results delivered for externally triggered work on this node."""
        return self._mstate.results

    # -- the ticketed send interface ------------------------------------

    def call(self, payload: Any, hint: Optional[float] = None) -> Ticket:
        """Delegate a sub-problem; destination chosen by the mapper.

        Returns the ticket identifying the eventual reply.  ``hint`` is the
        optional cross-layer estimate of sub-problem size (§III-B3).
        """
        st = self._mstate
        view = st.view
        service = self._service
        node = view.node
        ticket = Ticket(node, st.next_seq)
        st.next_seq += 1
        mapper = st.mapper
        dst = mapper.choose(view, hint)
        if service.notify_sent:
            mapper.on_sent(view, dst, hint)
        st.forward_table[ticket] = dst
        msg = WorkMsg(
            ticket,
            payload,
            hint,
            path=(node,),
            hops_left=service.forward_hops,
            sender_count=view.received_count,
        )
        pctx = self._pctx
        pctx.send(pctx.peers[dst], msg)
        tel = service._telemetry
        if tel is not None:
            tel.tally[_ISSUE] += 1
            if tel.want_events:
                tel.event(_ISSUE, ticket, dst, hint)
        return ticket

    def reply(self, handle: Optional[ReplyHandle], payload: Any) -> None:
        """Answer incoming work (or deliver an external result).

        ``handle`` must be the :class:`ReplyHandle` the work arrived with;
        ``None`` marks the answer to an external trigger, which is appended
        to this node's ``results`` (and halts the machine when the service
        was configured with ``halt_on_result``).
        """
        tel = self._service._telemetry
        if handle is None:
            self._mstate.results.append(payload)
            if tel is not None:
                tel.tally[_EXTERNAL] += 1
                if tel.want_events:
                    tel.event(_EXTERNAL)
            if self._service.halt_on_result:
                self._pctx.machine.halt()
            return
        route = handle.route
        if not route:
            raise MappingError(f"reply handle {handle!r} has an empty route")
        msg = ReplyMsg(
            handle.ticket, payload, route[1:], self._mstate.view.received_count
        )
        pctx = self._pctx
        pctx.send(pctx.peers[route[0]], msg)
        if tel is not None:
            tel.tally[_REPLY_SENT] += 1
            if tel.want_events:
                tel.event(_REPLY_SENT, handle.ticket, len(route))

    def cancel(self, ticket: Ticket) -> None:
        """Cancel previously delegated work (extension; see §IV-C).

        The cancellation follows the work's forwarding chain; if the work
        already replied (the ticket is retired) this is a silent no-op.
        """
        dst = self._mstate.forward_table.get(ticket)
        if dst is None:
            return
        msg = CancelMsg(ticket, self._mstate.view.received_count)
        self._pctx.send(self._pctx.peers[dst], msg)
        tel = self._service._telemetry
        if tel is not None:
            tel.tally[_CANCEL] += 1
            if tel.want_events:
                tel.event(_CANCEL, ticket, dst)


class MappingService:
    """Layer-2 process template running layer 3 on every node.

    Parameters
    ----------
    app:
        The hosted :class:`MappedApp` (shared template; per-node state lives
        in the context).
    mapper:
        A name in :data:`~repro.mapping.mappers.MAPPERS` (default ``"rr"``);
        every node gets a fresh instance of that class.
    status:
        Explicit status broadcasts: ``None`` (default, piggyback only) or an
        int threshold >= 1 — a node tells every neighbour its received
        count once the count has moved that far since its last broadcast.
    seed:
        Master seed for per-node tie-breaking streams.
    forward_hops:
        Extra hops work travels before executing (0 = execute at the first
        mapped neighbour, the paper's behaviour).
    halt_on_result:
        Stop the whole machine once any external (root) result is delivered
        — how the solver stack terminates without draining speculative work.
    share_threshold / load_fn:
        Work sharing (extension; paper Figure 2 lists "work
        sharing/stealing" as a layer-3 mechanism): when incoming work
        arrives at a node whose load — ``load_fn(pctx, app_state)`` — is
        at least ``share_threshold``, the work is pushed onward to a
        mapper-chosen neighbour instead of executing locally, up to
        :data:`MAX_SHARE_HOPS` total detour hops per work item.  Disabled when
        ``share_threshold`` or ``load_fn`` is ``None``.
        :func:`queue_depth_load` (this node's inbox backlog) is the load
        probe that measures actual pressure in the one-pop-per-step
        machine; application-level probes like
        :meth:`repro.recursion.RecursionEngine.load_probe` are also
        accepted.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryBus`; when given, the
        service publishes the layer-3 ticket lifecycle (``ticket_issue`` /
        ``ticket_claim`` / ``ticket_forward``), reply and cancel traffic,
        and ``status_broadcast`` events.
    """

    def __init__(
        self,
        app: MappedApp,
        mapper: str = "rr",
        status: Optional[int] = None,
        seed: int = 0,
        forward_hops: int = 0,
        halt_on_result: bool = False,
        share_threshold: Optional[int] = None,
        load_fn: Optional[Callable[[Any], int]] = None,
        telemetry: Optional["TelemetryBus"] = None,
    ) -> None:
        judge("forward_hops", forward_hops)
        judge("status", status)
        judge("share_threshold", share_threshold)
        if share_threshold is not None and load_fn is None:
            raise MappingError("work sharing needs a load_fn to measure load")
        self.app = app
        self.mapper_cls = mapper_class(mapper)
        #: whether the mapper's ``on_sent`` / ``on_reply`` do anything:
        #: the inherited no-ops are not called
        self.notify_sent = self.mapper_cls.on_sent is not _MapperBase.on_sent
        self.notify_reply = self.mapper_cls.on_reply is not _MapperBase.on_reply
        self.status = status
        self.seeds = SeedSequence(seed)
        self.forward_hops = forward_hops
        self.halt_on_result = halt_on_result
        self.share_threshold = share_threshold
        self.load_fn = load_fn
        self._telemetry = telemetry

    # -- layer-2 Process interface --------------------------------------

    def init(self, pctx: ProcessContext) -> None:
        view = MapperView(
            pctx.node, pctx.neighbours, self.seeds.stream(f"mapper[{pctx.node}]")
        )
        mstate = _MapState(view, self.mapper_cls())
        pctx.state = mstate
        mstate.mctx = MappingContext(self, pctx, mstate)
        self.app.init(mstate.mctx)

    def release(self, pctx: ProcessContext) -> None:
        """Break the :class:`MappingContext`'s link back to the state when
        the machine closes (the state points at the context)."""
        mstate: Optional[_MapState] = pctx.state
        if mstate is not None and mstate.mctx is not None:
            mstate.mctx._mstate = None

    def on_message(
        self, pctx: ProcessContext, sender: Optional[Address], payload: Any
    ) -> None:
        mstate: _MapState = pctx.state
        view = mstate.view
        # Only substantive traffic (work, replies, triggers) counts as
        # activity.  Status and cancel envelopes are control overhead; were
        # they counted, a status threshold at or below the node degree would
        # make broadcasts self-sustaining (every status volley triggers the
        # next one) and the machine would never go quiescent.
        kind = payload.__class__
        if kind is not StatusMsg and kind is not CancelMsg:
            view.received_count += 1
        if sender is not None:
            # every message from a peer piggybacks its received-count;
            # counts are monotone, so keep the freshest (largest) one
            src, count = sender.node, payload.sender_count
            counts = view.neighbour_counts
            if src not in counts or count > counts[src]:
                counts[src] = count
        mctx = mstate.mctx
        assert mctx is not None

        if kind is WorkMsg:
            if payload.hops_left > 0:
                self._forward_work(pctx, mstate, payload)
            elif self.share_threshold is not None and self._should_share(
                pctx, mstate, payload
            ):
                # overloaded: push the work onward rather than execute it
                self._forward_work(pctx, mstate, payload, consume_hop=False)
            else:
                tel = self._telemetry
                if tel is not None:
                    tel.tally[_CLAIM] += 1
                    if tel.want_events:
                        tel.event(_CLAIM, payload.ticket, len(payload.path))
                handle = ReplyHandle(
                    payload.ticket, tuple(reversed(payload.path))
                )
                self.app.on_work(mctx, handle, payload.payload, payload.hint)
        elif kind is ReplyMsg:
            if payload.route:
                # relay toward the issuer; retire our forwarding-table entry
                # and the load _forward_work put on that neighbour
                mstate.forward_table.pop(payload.ticket, None)
                if sender is not None and self.notify_reply:
                    mstate.mapper.on_reply(view, sender.node)
                fwd = ReplyMsg(
                    payload.ticket,
                    payload.payload,
                    payload.route[1:],
                    view.received_count,
                )
                pctx.send(pctx.peers[payload.route[0]], fwd)
            else:
                if payload.ticket.node != view.node:
                    raise UnknownTicketError(
                        f"node {view.node} received terminal reply for foreign "
                        f"ticket {payload.ticket!r}"
                    )
                if sender is not None and self.notify_reply:
                    mstate.mapper.on_reply(view, sender.node)
                mstate.forward_table.pop(payload.ticket, None)
                tel = self._telemetry
                if tel is not None:
                    tel.tally[_REPLY_DELIVERED] += 1
                    if tel.want_events:
                        tel.event(_REPLY_DELIVERED, payload.ticket)
                self.app.on_reply(mctx, payload.ticket, payload.payload)
        elif kind is StatusMsg:
            pass  # its count was observed above
        elif kind is CancelMsg:
            next_hop = mstate.forward_table.get(payload.ticket)
            if next_hop is not None and payload.ticket.node != view.node:
                # we relayed this work onward: pass the cancel along
                pctx.send(
                    pctx.peers[next_hop],
                    CancelMsg(payload.ticket, view.received_count),
                )
            else:
                self.app.on_cancel(mctx, payload.ticket)
        else:
            # raw payload: an external trigger for the application
            self.app.on_work(mctx, None, payload, None)

        status = self.status
        if (
            status is not None
            and view.received_count - mstate.last_broadcast >= status
        ):
            self._broadcast_status(pctx, mstate)

    # -- internals -------------------------------------------------------

    def _should_share(
        self, pctx: ProcessContext, mstate: _MapState, msg: WorkMsg
    ) -> bool:
        # path holds the issuer plus every relay so far; cap the detour
        if len(msg.path) > MAX_SHARE_HOPS:
            return False
        return self.load_fn(pctx, mstate.mctx.state) >= self.share_threshold

    def _forward_work(
        self,
        pctx: ProcessContext,
        mstate: _MapState,
        msg: WorkMsg,
        consume_hop: bool = True,
    ) -> None:
        view = mstate.view
        dst = mstate.mapper.choose(view, msg.hint)
        if self.notify_sent:
            mstate.mapper.on_sent(view, dst, msg.hint)
        mstate.forward_table[msg.ticket] = dst
        fwd = WorkMsg(
            msg.ticket,
            msg.payload,
            msg.hint,
            path=msg.path + (pctx.node,),
            hops_left=msg.hops_left - 1 if consume_hop else msg.hops_left,
            sender_count=view.received_count,
        )
        pctx.send(pctx.peers[dst], fwd)
        tel = self._telemetry
        if tel is not None:
            tel.tally[_FORWARD] += 1
            if tel.want_events:
                tel.event(_FORWARD, msg.ticket, dst, not consume_hop)

    def _broadcast_status(self, pctx: ProcessContext, mstate: _MapState) -> None:
        count = mstate.view.received_count
        for n in pctx.neighbours:
            pctx.send(pctx.peers[n], StatusMsg(count))
        mstate.last_broadcast = count
        tel = self._telemetry
        if tel is not None:
            tel.tally[_STATUS] += 1
            if tel.want_events:
                tel.event(_STATUS, count, len(pctx.neighbours))

    # -- snapshot / restore (repro.state protocol) ------------------------

    def snapshot_process_state(self, pstate: Any) -> Dict[str, Any]:
        """Scheduler hook: capture one node's layer-3 state (plus the app's).

        Returns live references — the checkpoint's one pickle detaches the
        whole composite, preserving any sharing.  The hosted
        application's state is delegated to its ``snapshot_app_state`` hook
        when present (the recursion engine implements it to make its live
        generators replayable); hookless apps are captured raw.
        """
        if not isinstance(pstate, _MapState):
            raise MappingError("state does not belong to a MappingService process")
        view = pstate.view
        hook = getattr(self.app, "snapshot_app_state", None)
        if hook is not None:
            app: Tuple[str, Any] = ("hook", hook(pstate.mctx.state))
        else:
            app = ("raw", pstate.mctx.state)
        return {
            "received_count": view.received_count,
            "neighbour_counts": dict(view.neighbour_counts),
            "view_rng": view.rng.getstate(),
            "mapper": pstate.mapper,
            "last_broadcast": pstate.last_broadcast,
            "next_seq": pstate.next_seq,
            "forward_table": dict(pstate.forward_table),
            "results": list(pstate.results),
            "app": app,
        }

    def restore_process_state(self, pctx: ProcessContext, data: Dict[str, Any]) -> None:
        """Scheduler hook: install a captured layer-3 state into ``pctx``.

        ``pctx`` must already be initialised by this service (so the
        :class:`MappingContext` and view objects exist); counters, mapper,
        last status broadcast, routing tables and the app state are replaced.
        """
        from ..errors import CheckpointError

        mstate: _MapState = pctx.state
        if not isinstance(mstate, _MapState):
            raise MappingError("state does not belong to a MappingService process")
        view = mstate.view
        view.received_count = data["received_count"]
        view.neighbour_counts = dict(data["neighbour_counts"])
        view.rng.setstate(data["view_rng"])
        mstate.mapper = data["mapper"]
        mstate.last_broadcast = data["last_broadcast"]
        mstate.next_seq = data["next_seq"]
        mstate.forward_table = dict(data["forward_table"])
        mstate.results = list(data["results"])
        kind, app_data = data["app"]
        if kind == "hook":
            hook = getattr(self.app, "restore_app_state", None)
            if hook is None:
                raise CheckpointError(
                    f"application {type(self.app).__name__} cannot restore "
                    "a hook-captured state"
                )
            hook(mstate.mctx, app_data)
        else:
            mstate.mctx.state = app_data

    # -- inspection -------------------------------------------------------

    @staticmethod
    def results_of(process_state: Any) -> List[Any]:
        """External results stored in a node's mapping-service state."""
        if not isinstance(process_state, _MapState):
            raise MappingError("state does not belong to a MappingService process")
        return process_state.results

    @staticmethod
    def app_state_of(process_state: Any) -> Any:
        """Hosted application's state inside a service state blob."""
        if not isinstance(process_state, _MapState):
            raise MappingError("state does not belong to a MappingService process")
        return process_state.mctx.state

    @staticmethod
    def view_of(process_state: Any) -> MapperView:
        """The node's :class:`MapperView` (activity counters)."""
        if not isinstance(process_state, _MapState):
            raise MappingError("state does not belong to a MappingService process")
        return process_state.view
