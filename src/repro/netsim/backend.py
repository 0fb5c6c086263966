"""Layer 1: the discrete-time message-passing machine simulator.

This is the paper's §IV-A backend: "The backend initializes an array of node
states and message queues then runs an event loop to deliver messages.  On
each simulation time step, a message is popped from each non-empty queue and
passed to a handler function (``receive``) to update the respective node's
state.  While executing ``receive``, the node can queue further messages for
transmission using a ``send`` handler."

Semantics implemented here (and verified by tests):

* one message popped per *non-empty-at-step-start* queue per step;
* messages sent while handling step *t* are enqueued immediately but cannot
  be popped before step *t+1*, whatever the inbox's pop order;
* sends are restricted to topology neighbours (the paper assumes "messages
  can be communicated between adjacent cores only"); on the fully connected
  topology every pair is adjacent — violations raise :class:`AdjacencyError`;
* node handler order within a step is ascending node id (deterministic);
* queues are unbounded FIFO by default (the paper's assumption); finite
  capacities (overflow raises :class:`~repro.errors.QueueOverflowError`),
  other pop orders, link latency and fault injection are opt-in extensions.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
from math import inf
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..reliability import ReliabilityConfig, ReliableDelivery
    from ..telemetry import TelemetryBus

from ..domains import judge
from ..errors import AdjacencyError, QueueOverflowError, SimulationError
from ..topology import NodeId, Topology
from .faults import FaultModel, ReliableLinks
from .message import Envelope
from .program import NodeContext, NodeProgram, release_states
from .trace import SimulationReport, TraceRecorder

__all__ = ["Machine"]

#: Source id used for externally injected (kickstart) messages.
EXTERNAL = -1


def _newest(n: int) -> int:
    """LIFO's pick among ``n`` sealed messages: the newest."""
    return n - 1


class Machine:
    """A simulated hyperspace machine (topology + node program + event loop).

    Parameters
    ----------
    topology:
        Interconnect; also fixes each node's neighbour ordering.
    program:
        The :class:`NodeProgram` every node runs.
    trace:
        Optional pre-configured :class:`TraceRecorder` (e.g. with queue-depth
        recording on).  A default one is created when omitted.
    queue_policy / queue_capacity:
        Each inbox's pop order (``"fifo"``, ``"lifo"`` or ``"random"``)
        and bound (None or an int >= 1); defaults match the paper
        (unbounded FIFO).  LIFO and random pop among the messages an inbox
        held when the step began.  A full finite inbox raises
        :class:`~repro.errors.QueueOverflowError`.
    latency:
        Extra in-flight steps per message on every link, an int >= 0.
        Default 0 (delivered the following step).
    faults:
        Optional :class:`FaultModel` for drop/duplicate injection.
    reliability:
        Opt-in layer-1.5 reliable delivery over the (possibly faulty)
        links: ``True`` for the default
        :class:`~repro.reliability.ReliabilityConfig`, or a configured
        instance.  Every send is then sequence-numbered, acknowledged and
        retransmitted until delivered exactly once in per-link order —
        see :mod:`repro.reliability` and ``docs/robustness.md``.  Off by
        default; when off, the send path is unchanged.
    seed:
        Seed for the machine's internal stream, which the random pop order
        draws from.
    size_fn:
        Optional message-size model for bandwidth accounting (see
        :mod:`repro.netsim.sizing`); default charges one unit per message.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryBus`; when given, the
        machine publishes layer-1 ``send`` / ``deliver`` / ``drop`` events
        and a per-step ``queued`` counter.  ``None`` (default) keeps every
        hot path behind a single ``is None`` check — the invariant the
        storm/flood microbench guard in ``docs/observability.md`` pins.
    """

    #: subclasses that own program initialisation elsewhere (the sharded
    #: coordinator runs ``program.init`` inside its workers) set this False
    _init_node_programs = True

    def __init__(
        self,
        topology: Topology,
        program: NodeProgram,
        *,
        trace: Optional[TraceRecorder] = None,
        queue_policy: str = "fifo",
        queue_capacity: Optional[int] = None,
        latency: int = 0,
        faults: FaultModel = ReliableLinks,
        reliability: Union[None, bool, "ReliabilityConfig"] = None,
        seed: int = 0,
        size_fn: Optional[Callable[[Any], int]] = None,
        telemetry: Optional["TelemetryBus"] = None,
    ) -> None:
        self.topology = topology
        #: the node count every send checks against, read once
        self._n_nodes = topology.n_nodes
        self.program = program
        self._telemetry = telemetry
        self.trace = trace if trace is not None else TraceRecorder(topology.n_nodes)
        if self.trace.n_nodes != topology.n_nodes:
            raise SimulationError(
                f"trace sized for {self.trace.n_nodes} nodes, machine has "
                f"{topology.n_nodes}"
            )
        judge("queue_policy", queue_policy)
        judge("queue_capacity", queue_capacity)
        judge("latency", latency)
        self._rng = random.Random(seed)
        self._queue_capacity = queue_capacity
        #: one deque per node; every discipline pushes on the right
        self._inboxes: List[Deque[Envelope]] = [
            deque() for _ in range(topology.n_nodes)
        ]
        self._push_fns = [q.append for q in self._inboxes]
        #: ids of nodes with non-empty inboxes; kept sorted lazily — new
        #: ids are appended and the dirty flag triggers one sort at the
        #: start of the next step (instead of sorting a set every step)
        self._active: List[NodeId] = []
        self._active_dirty = False
        #: per-node inbox depth mirror; every push/pop goes through the
        #: machine, so tracking depths here avoids a Python-level __len__
        #: call per message on the hot path
        self._depths: List[int] = [0] * topology.n_nodes
        #: the paper's discipline; anything else sends through _enqueue
        self._unbounded_fifo = queue_policy == "fifo" and queue_capacity is None
        if queue_policy == "fifo":
            self._sealed: Optional[List[int]] = None
            self._pop_fns = [q.popleft for q in self._inboxes]
        else:
            # FIFO's oldest message always predates the step; LIFO/random
            # pop among the first sealed[node] messages (the depth at the
            # step's snapshot), never one pushed during its delivery round
            self._sealed = [0] * topology.n_nodes
            pick = _newest if queue_policy == "lifo" else self._rng.randrange
            self._pop_fns = [
                partial(self._pop_sealed, q, node, pick)
                for node, q in enumerate(self._inboxes)
            ]
        self._faults = faults
        self._size_fn = size_fn
        self._full = topology.kind == "full"
        self._latency = latency
        if reliability:
            from ..reliability import ReliabilityConfig, ReliableDelivery

            config = reliability if isinstance(reliability, ReliabilityConfig) else None
            self._reliability: Optional["ReliableDelivery"] = ReliableDelivery(
                self, config
            )
        else:
            self._reliability = None
        #: reliable zero-latency sends into unbounded FIFO inboxes skip the
        #: fault/latency/protocol machinery and the capacity test
        self._fast_send = (
            faults.is_reliable
            and latency == 0
            and self._reliability is None
            and self._unbounded_fifo
        )
        #: sends since the last step boundary, coalesced into one telemetry
        #: counter delta per step (the per-event record rides the bus ring
        #: only when a subscriber retains events)
        self._tel_sends = 0
        #: messages maturing at a future step: step -> [(dst, envelope)]
        self._in_flight: Dict[int, List[Tuple[NodeId, Envelope]]] = {}
        self._queued_count = 0
        self.current_step = -1
        self._next_msg_id = 0
        self._halted = False
        #: nodes whose program asked to be polled at the start of next step
        self._poll_requests: set[NodeId] = set()
        self._has_on_step = hasattr(program, "on_step")
        # Build per-node contexts with bound send closures.
        self._contexts: List[NodeContext] = []
        self._neighbour_sets: List[frozenset[NodeId]] = []
        for node in range(topology.n_nodes):
            neigh = tuple(topology.neighbours(node))
            self._neighbour_sets.append(frozenset(neigh))
            ctx = NodeContext(node, neigh, self._make_send(node), self)
            self._contexts.append(ctx)
        if self._init_node_programs:
            for ctx in self._contexts:
                self.program.init(ctx)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _make_send(self, src: NodeId) -> Callable[[NodeId, Any], None]:
        # functools.partial dispatches at C level — cheaper per send than a
        # Python closure frame
        return partial(self._send_from, src)

    def _send_from(self, src: NodeId, dst: NodeId, payload: Any) -> None:
        if not (0 <= dst < self._n_nodes):
            raise SimulationError(f"send to invalid node {dst} from node {src}")
        if src != EXTERNAL:
            if not self._full:
                if dst not in self._neighbour_sets[src]:
                    raise AdjacencyError(
                        f"node {src} attempted to send to non-neighbour {dst} "
                        f"(topology {self.topology.describe()})"
                    )
            elif src == dst:
                raise AdjacencyError(f"node {src} attempted to send to itself")
        size_fn = self._size_fn
        size = size_fn(payload) if size_fn is not None else 1
        self.trace.on_send(src, self.current_step, payload, size)
        tel = self._telemetry
        if tel is not None:
            # one machine-local int bump per send; the coalesced counter
            # delta is published at the step boundary.  The per-event tuple
            # is staged only when someone retains events.
            self._tel_sends += 1
            if tel.want_events:
                tel.record(
                    self.current_step, 1, "send", src,
                    None, {"dst": dst, "size": size},
                )
        if self._fast_send:
            # common path: reliable links, zero latency, unbounded FIFO —
            # exactly one copy, deliverable next step (enqueue inlined: this
            # runs once per message in every simulation)
            msg_id = self._next_msg_id
            self._next_msg_id = msg_id + 1
            env = Envelope(src, dst, payload, self.current_step, msg_id)
            self._push_fns[dst](env)
            self._queued_count += 1
            depth = self._depths[dst]
            self._depths[dst] = depth + 1
            if depth == 0:
                self._active.append(dst)
                self._active_dirty = True
            return
        self._send_slow(src, dst, payload)

    def _record_drop(self, dst: NodeId, reason: str) -> None:
        """Account one dropped message, attributed to ``dst`` at this step."""
        self.trace.on_drop(dst, self.current_step)
        tel = self._telemetry
        if tel is not None:
            tel.emit(1, "drop", self.current_step, dst, attrs={"reason": reason})

    def _send_slow(self, src: NodeId, dst: NodeId, payload: Any) -> None:
        """Fault-injection / link-latency / bounded or non-FIFO inbox send
        path (opt-in extensions)."""
        rel = self._reliability
        if rel is not None:
            rel.send(src, dst, payload)
            return
        copies = self._faults.copies_to_deliver()
        if copies == 0:
            self._record_drop(dst, "fault")
            return
        for _ in range(copies):
            env = Envelope(src, dst, payload, self.current_step, self._next_msg_id)
            self._next_msg_id += 1
            delay = self._latency if src != EXTERNAL else 0
            if delay == 0:
                self._enqueue(dst, env)
            else:
                mature = self.current_step + 1 + delay
                self._in_flight.setdefault(mature, []).append((dst, env))

    def _enqueue(self, dst: NodeId, env: Envelope) -> None:
        depth = self._depths[dst]
        capacity = self._queue_capacity
        if capacity is not None and depth >= capacity:
            raise QueueOverflowError(
                f"inbox of node {dst} overflowed (capacity {capacity})"
            )
        self._push_fns[dst](env)
        self._queued_count += 1
        self._depths[dst] = depth + 1
        if depth == 0:
            self._active.append(dst)
            self._active_dirty = True

    def inject(self, node: NodeId, payload: Any) -> None:
        """Send a kickstart message from outside the machine to ``node``.

        This is the paper's "the backend kickstarts computations by sending
        EMPTY_MSG to a user-selected node".
        """
        self.topology.check_node(node)
        self._send_from(EXTERNAL, node, payload)

    def request_poll(self, node: NodeId) -> None:
        """Ask that ``program.on_step`` run for ``node`` at the next step.

        Used by node programs (e.g. the layer-2 scheduler) that keep local
        work queues outside the network: a node with pending local work
        registers itself, and the event loop polls it once at the start of
        the following step.  Programs without an ``on_step`` method cannot
        be polled.
        """
        if not self._has_on_step:
            raise SimulationError(
                f"program {type(self.program).__name__} has no on_step hook"
            )
        self.topology.check_node(node)
        self._poll_requests.add(node)

    def halt(self) -> None:
        """Request the event loop stop at the end of the current step.

        Applications call this (via their context's machine handle or an
        upper layer) when a final answer is known — e.g. the SAT solver's
        root invocation completing — so runs need not drain every
        speculative message before returning.
        """
        self._halted = True

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    @property
    def total_queued(self) -> int:
        """Messages currently queued in inboxes (excludes in-flight)."""
        return self._queued_count

    @property
    def is_quiescent(self) -> bool:
        """True when no messages are queued, in flight, or awaiting a poll
        (including unacknowledged frames held by the reliability layer)."""
        return (
            self._queued_count == 0
            and not self._in_flight
            and not self._poll_requests
            and (self._reliability is None or not self._reliability.pending)
        )

    @property
    def reliability(self) -> Optional["ReliableDelivery"]:
        """The layer-1.5 reliable-delivery engine, or None when disabled."""
        return self._reliability

    def state_of(self, node: NodeId) -> Any:
        """Application state of ``node`` (read-only inspection)."""
        self.topology.check_node(node)
        return self._contexts[node].state

    # -- node services (same interface on the sharded backend) ----------

    def map_nodes(
        self,
        fn: Callable[[Any, NodeContext, Any], Any],
        args: Optional[Dict[NodeId, Any]] = None,
    ) -> Dict[NodeId, Any]:
        """Run ``fn(program, ctx, arg)`` for every node; ``{node: result}``.

        How the layers above read or replace per-node program state
        (result collection, scheduler snapshot/restore) without asking
        which machine they hold: the state is reached where it lives —
        here, or inside the owning worker of a sharded machine.  ``args``
        maps node id to ``arg`` (default None).
        """
        program = self.program
        if args is None:
            args = {}
        return {
            ctx.node: fn(program, ctx, args.get(ctx.node)) for ctx in self._contexts
        }

    def drain_telemetry(self) -> int:
        """Relay worker-side events onto the bus; serial handlers publish
        straight to it, so nothing is ever pending here."""
        return 0

    def close(self) -> None:
        """Free the finished run (idempotent).

        Each node's program ``release`` hook runs and its state is
        cleared, the contexts are dropped, and the reliability engine lets
        go of this machine, so no reference cycle outlives the run.  The
        trace, :meth:`report` and ``reliability.stats`` stay readable; the
        machine cannot step again.
        """
        contexts = getattr(self, "_contexts", None)
        if contexts:
            release_states(self.program, contexts)
        self._contexts = []
        # LIFO/random pops are partials of a bound method of this machine
        self._pop_fns = []
        rel = getattr(self, "_reliability", None)
        if rel is not None:
            rel.release()

    def queue_depths(self) -> List[int]:
        """Current inbox depth for every node."""
        return list(self._depths)

    def queue_depth_of(self, node: NodeId) -> int:
        """Current inbox depth of one node (O(1))."""
        self.topology.check_node(node)
        return self._depths[node]

    def step(self) -> int:
        """Execute one simulation time step; return messages delivered."""
        self.current_step += 1
        step = self.current_step
        # Land reliability-protocol frames first (they enqueue released
        # payloads and schedule retransmits), so protected messages are
        # deliverable within this step — same latency as an unprotected send.
        rel = self._reliability
        if rel is not None:
            rel.on_step(step)
        # Mature in-flight messages first: they were sent at least one full
        # step ago, so they are deliverable within this step.  The emptiness
        # guard keeps the default (zero-latency) configuration from paying
        # a dict lookup per step.
        if self._in_flight:
            for dst, env in self._in_flight.pop(step, ()):
                self._enqueue(dst, env)
        # Poll nodes that requested a step callback (snapshot: re-requests
        # made during the callback land on the following step).  Polling
        # before delivering, with one bus flush per step, is what lets the
        # bus fold directly dispatched run-queue samples as the step's last
        # (repro.telemetry.events.TALLIED_GAUGES).
        if self._poll_requests:
            polled = sorted(self._poll_requests)
            self._poll_requests.clear()
            self._poll_round(step, polled)
        # Snapshot which queues may deliver this step (sends during the step
        # must wait until the next one).  The active list is only re-sorted
        # when nodes were added since the last step; handler order within a
        # step stays ascending node id.
        active = self._active
        if self._active_dirty:
            active.sort()
            self._active_dirty = False
        # The first n0 entries are this step's delivery set (one pop per
        # non-empty-at-step-start queue, ascending node id); sends made
        # while handling it append past n0.
        n0 = len(active)
        tel = self._telemetry
        if n0:
            delivered = active[:n0]
            sealed = self._sealed
            if sealed is not None:
                depths = self._depths
                for node in delivered:
                    sealed[node] = depths[node]
            # a subscriber that retains events gets one record per delivery,
            # ahead of that handler's sends, so the published stream stays
            # causally ordered; everyone else gets the per-step counter below
            record = tel.record if tel is not None and tel.want_events else None
            self._delivery_round(step, delivered, record)
            self.trace.on_deliver_batch(delivered, step)
            self._queued_count -= n0
        # Flush deferred protocol acknowledgements (piggyback window closes
        # with the step; standalone acks keep the same next-step arrival as
        # the old ack-per-frame scheme).
        if rel is not None:
            rel.end_step()
        self.trace.on_step_end(
            step,
            self._queued_count,
            n0,
            self.queue_depths() if self.trace.record_queue_depths else None,
        )
        if tel is not None:
            sends = self._tel_sends
            if sends:
                self._tel_sends = 0
                tel.count(1, "send", sends)
            if n0:
                tel.count(1, "deliver", n0)
            tel.emit(
                1,
                "queued",
                step,
                attrs={"value": self._queued_count, "delivered": n0},
            )
            tel.flush()
        return n0

    def _pop_sealed(
        self, q: Deque[Envelope], node: NodeId, pick: Callable[[int], int]
    ) -> Envelope:
        """LIFO/random pop: take slot ``pick(n)`` of the ``n`` messages
        sealed this step, move the newest sealed one into its place."""
        newest = self._sealed[node] - 1
        i = pick(newest + 1)
        env = q[i]
        q[i] = q[newest]
        del q[newest]
        return env

    # The two handler rounds of a step.  Everything else in ``step`` is
    # layer-1 state kept here; a backend that runs handlers elsewhere (the
    # sharded coordinator) overrides these two and nothing more.

    def _poll_round(self, step: int, polled: List[NodeId]) -> None:
        """Run ``program.on_step`` for the nodes that asked to be polled."""
        on_step = self.program.on_step
        contexts = self._contexts
        for node in polled:
            on_step(contexts[node])

    def _delivery_round(
        self,
        step: int,
        delivered: List[NodeId],
        record: Optional[Callable[..., None]],
    ) -> None:
        """Pop one message per node of ``delivered`` and run its handler.

        Survivors (inboxes still non-empty) compact in place below the read
        cursor of the active list, then the drained gap is deleted — no
        list churn.  ``record`` is the bus's per-event hook, or None.
        """
        active = self._active
        pop_fns = self._pop_fns
        contexts = self._contexts
        depths = self._depths
        on_message = self.program.on_message
        write = 0
        for node in delivered:
            env = pop_fns[node]()
            depth = depths[node] - 1
            depths[node] = depth
            if depth:
                active[write] = node
                write += 1
            if record is not None:
                record(step, 1, "deliver", node)
            on_message(contexts[node], env.src, env.payload)
        n0 = len(delivered)
        if write != n0:
            del active[write:n0]

    def run(
        self,
        max_steps: int = 1_000_000,
        *,
        checkpoint_every: Optional[int] = None,
        checkpoint_sink: Optional[Callable[["Machine"], None]] = None,
    ) -> SimulationReport:
        """Run until quiescent, halted, or ``max_steps`` steps elapse.

        With ``checkpoint_every=k``, ``checkpoint_sink(self)`` is called at
        every k-th step boundary (after the step completed, before the
        next begins) — the hook the stack uses to snapshot every layer.
        Checkpointing adds no per-step test: the loop below runs to the
        next boundary (or to ``max_steps``) and the sink is called between
        boundaries.

        One clock: while no inbox holds a message and no node asked to be
        polled, nothing happens before :meth:`_next_event_step`, so the clock
        jumps there (or to the boundary) and the steps in between are
        accounted, not executed — trace, report and bus read as if stepped.
        """
        # type() is int refuses a bool, as the RunSpec rules do
        if type(max_steps) is not int or max_steps < 0:
            raise SimulationError(f"max_steps must be an int >= 0, got {max_steps!r}")
        judge("checkpoint_every", checkpoint_every)
        if checkpoint_every is not None:
            if checkpoint_sink is None:
                raise SimulationError("checkpoint_every requires a checkpoint_sink")
        executed = self.current_step + 1
        step = self.step
        while True:
            # step numbering is absolute (resumes continue it), so a run
            # resumed from step k checkpoints at the same boundaries the
            # uninterrupted run would
            boundary = (
                max_steps
                if checkpoint_every is None
                else executed - executed % checkpoint_every + checkpoint_every
            )
            stop = min(boundary, max_steps)
            while executed < stop and not self._halted:
                if not (self._queued_count or self._poll_requests):
                    due = self._next_event_step()
                    if due is None:
                        break  # quiescent
                    gap = min(due, stop) - executed
                    if gap > 0:
                        self._skip_empty_steps(gap)
                        executed += gap
                        continue
                step()
                executed += 1
            if checkpoint_every is None or executed < boundary:
                if self._telemetry is not None:
                    # publications made outside any step (a drop at inject())
                    self._telemetry.flush()
                return self.report()
            checkpoint_sink(self)

    def _next_event_step(self) -> Optional[float]:
        """Step of the earliest scheduled event (a maturing message, a frame
        arrival, a timer); None when nothing is outstanding.  ``inf`` is the
        protocol holding frames with nothing scheduled: run out the clock."""
        rel = self._reliability
        if rel is not None and rel.pending:
            return min(min(self._in_flight, default=inf), rel.next_event_step())
        return min(self._in_flight, default=None)

    def _skip_empty_steps(self, gap: int) -> None:
        """Account ``gap`` steps with nothing queued, polled or due as ``step()``
        would.  A bus gets each step's ``queued`` sample: one block and one
        flush, or, for an audience that keeps events, one event and one
        flush per step.  Aggregators cannot tell the two apart: they fold
        the deltas of a flush as they would the same samples one by one."""
        self.trace.on_empty_steps(gap)
        tel = self._telemetry
        if tel is not None:
            if tel.want_events:
                first = self.current_step + 1
                for step in range(first, first + gap):
                    tel.emit(1, "queued", step, attrs={"value": 0, "delivered": 0})
                    tel.flush()
            else:
                tel.sample(1, "queued", 0, gap)
                tel.flush()
        self.current_step += gap

    def report(self) -> SimulationReport:
        """Snapshot the current trace into a :class:`SimulationReport`."""
        return SimulationReport(
            self.trace,
            steps=self.current_step + 1,
            quiescent=self.is_quiescent,
            topology=self.topology,
        )

    # ------------------------------------------------------------------
    # Snapshot / restore (repro.state protocol)
    # ------------------------------------------------------------------

    #: snapshot-schema version of the netsim layer state
    STATE_VERSION = 1

    def snapshot(self) -> "LayerState":
        """Capture layer-1 mutable state as a :class:`LayerState`.

        Covers the event-loop core (step counter, message-id counter, halt
        flag), every inbox's contents, in-flight (latent) messages, pending
        poll requests, the machine and fault-model RNG streams, and the
        trace recorder — everything needed to continue the exact schedule.
        Derived bookkeeping (active list, depth mirror, counters) is
        recomputed on restore.  Program/per-node state is *not* included:
        that belongs to the layers above (see ``docs/checkpointing.md``).
        The queued envelopes are the live ones: the checkpoint's pickle is
        the copy.
        """
        from ..state import LayerState

        faults_rng = self._faults._rng
        data = {
            "config": {
                "n_nodes": self.topology.n_nodes,
                "topology": self.topology.describe(),
                "unbounded_fifo": self._unbounded_fifo,
                "has_fault_rng": faults_rng is not None,
            },
            "current_step": self.current_step,
            "next_msg_id": self._next_msg_id,
            "halted": self._halted,
            "rng": self._rng.getstate(),
            "faults_rng": None if faults_rng is None else faults_rng.getstate(),
            "inboxes": [list(q) for q in self._inboxes],
            "in_flight": {
                step: list(pairs) for step, pairs in self._in_flight.items()
            },
            "poll_requests": sorted(self._poll_requests),
            "trace": self.trace.snapshot(),
        }
        return LayerState("netsim", self.STATE_VERSION, data)

    def restore(self, state: "LayerState") -> None:
        """Install a :meth:`snapshot`-captured state into this machine.

        The machine must have been built with the same configuration
        (topology, queue discipline, fault/latency/reliability setup) —
        checkpoints store *state*, not code.  Raises
        :class:`~repro.errors.CheckpointError` on a detectable mismatch.
        """
        from ..state import CheckpointError, LayerState  # noqa: F401

        data = state.require("netsim", self.STATE_VERSION)
        cfg = data["config"]
        if cfg["n_nodes"] != self.topology.n_nodes or cfg["topology"] != self.topology.describe():
            raise CheckpointError(
                f"checkpoint taken on {cfg['topology']} ({cfg['n_nodes']} nodes); "
                f"this machine is {self.topology.describe()} "
                f"({self.topology.n_nodes} nodes)"
            )
        if cfg["unbounded_fifo"] != self._unbounded_fifo:
            raise CheckpointError(
                "checkpoint and machine disagree on the inbox discipline"
            )
        faults_rng = self._faults._rng
        if cfg["has_fault_rng"] != (faults_rng is not None):
            raise CheckpointError(
                "checkpoint and machine disagree on fault injection"
            )
        self.current_step = data["current_step"]
        self._next_msg_id = data["next_msg_id"]
        self._halted = data["halted"]
        self._rng.setstate(data["rng"])
        if faults_rng is not None:
            faults_rng.setstate(data["faults_rng"])
        for node, envs in enumerate(data["inboxes"]):
            q = self._inboxes[node]
            q.clear()
            q.extend(envs)
            self._depths[node] = len(envs)
        # rebuilt ascending, so the next step needs no sort
        self._active = [n for n in range(self.topology.n_nodes) if self._depths[n]]
        self._active_dirty = False
        self._queued_count = sum(self._depths)
        self._in_flight = {
            step: list(pairs) for step, pairs in data["in_flight"].items()
        }
        self._poll_requests = set(data["poll_requests"])
        self._tel_sends = 0
        self.trace.restore(data["trace"])
