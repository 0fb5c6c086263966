"""Sharded multi-process simulation backend (bit-identical to serial).

:class:`ShardedMachine` splits the topology's nodes into K contiguous
shards (:func:`repro.netsim.partition.partition_strip`) and runs each
shard's node handlers in a persistent worker process, while keeping **every piece of layer-1 state on
the coordinator**: inboxes, in-flight messages, fault/latency machinery,
the reliability protocol, the trace recorder, message-id allocation and
the machine RNG.  Workers own only what the node *programs* store in
their contexts (layers 2-5).

The design is function shipping, not state exchange.  The step kernel is
:meth:`repro.netsim.Machine.step` itself; the coordinator overrides only
its two handler rounds:

1. **poll round** — nodes that requested a step callback are dispatched
   to their owning shards; workers run ``program.on_step`` and return the
   side effects as *intents* (sends, poll requests, halt).
2. **delivery round** — the coordinator pops exactly one envelope per
   non-empty-at-step-start inbox (ascending node id, exactly the serial
   kernel's pops), ships ``(node, src, payload)`` triples to the owning
   shards, and workers run ``program.on_message``.

Returned send intents are replayed through the coordinator's real
``_send_from`` in the serial kernel's order (ascending node id, each
node's sends in execution order), so fault-RNG draws, message ids, trace
records and telemetry counters are produced by the *same code in the same
order* as a single-process run — which is what makes the global schedule,
verdicts and digests bit-identical by construction rather than by
accident.  The parity is pinned by ``tests/netsim/test_sharded.py``
against the digests of ``tests/netsim/test_step_kernel_parity.py``.

Determinism means the shard count is a *partitioning* choice, not a
semantic one: any K produces the same run, and a checkpoint taken under
one shard count resumes under any other (or serially) because no shard
information leaks into layer state.

Constraints (all raise :class:`~repro.errors.SimulationError` upfront):

* only the paper's default unbounded FIFO inbox discipline is supported
  (the pop-all-upfront delivery snapshot is provably order-equivalent to
  the serial kernel only for unbounded FIFO);
* programs must not read live coordinator state from inside handlers —
  ``queue_depth_of`` (queue-load work sharing) is rejected;
* worker programs must be picklable.  Pass a :class:`ShardProgramSpec`
  (a picklable *recipe*) for programs that close over unpicklable state;
  the ``auto`` backend falls back to the in-process cell otherwise.

Telemetry: layer-1 events are complete and exactly ordered (the
coordinator emits them).  Worker-side layer 2-5 events are collected on a
per-worker bus and relayed to the coordinator bus at drain points (end of
run, every checkpoint composition, :meth:`ShardedMachine.drain_telemetry`)
— counters, histograms and ``events_emitted`` match a serial run exactly;
only the fine-grained *interleaving* of the event stream may differ.  See
``docs/parallelism.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..domains import judge
from ..errors import AdjacencyError, SimulationError
from ..topology import NodeId, Topology
from .backend import Machine
from .partition import edge_cut, partition_strip
from .program import NodeContext, release_states

__all__ = [
    "FIFO_ONLY_MSG",
    "SHARE_SHARD_MSG",
    "SHARDS_ENV_VAR",
    "ShardProgramSpec",
    "ShardWorkerError",
    "ShardedMachine",
    "resolve_shards",
]

#: why a non-default inbox cannot be sharded (the constructor guard and the
#: engine's ``shard-capability`` rule reject with the same words)
FIFO_ONLY_MSG = (
    "the sharded backend supports only the default unbounded "
    "FIFO inboxes (queue_policy='fifo', queue_capacity=None)"
)

#: why work sharing cannot run sharded (the stack's guard and the engine's
#: ``shard-capability`` rule)
SHARE_SHARD_MSG = (
    "work sharing (share_threshold) reads live inbox depths and "
    "is not supported with shards > 1"
)

#: Environment variable consulted when ``shards`` is not given explicitly
#: (the sharded sibling of the executor's ``REPRO_JOBS``).
SHARDS_ENV_VAR = "REPRO_SHARDS"


def resolve_shards(shards: Any = None) -> int:
    """Resolve a shard-count request to a concrete positive integer.

    ``None`` consults :data:`SHARDS_ENV_VAR` and defaults to 1 (serial).
    ``"auto"`` or ``0`` means one shard per available CPU.  Unlike
    :func:`repro.parallel.resolve_jobs`, an explicit count is *not*
    capped at the host's core count: shards partition the simulation
    deterministically — any K gives the identical run — so oversubscribing
    is a correctness-neutral layout choice (and what the cross-shard-count
    resume tests rely on).
    """
    if shards is None:
        raw = os.environ.get(SHARDS_ENV_VAR, "").strip()
        if not raw:
            return 1
        shards = raw
    if shards == "auto":
        return os.cpu_count() or 1
    if isinstance(shards, (bool, float)):
        # int() would truncate 2.5 to 2 and take True as 1
        raise SimulationError(
            f"invalid shard count {shards!r}: expected an int or 'auto'"
        )
    try:
        n = int(shards)
    except (TypeError, ValueError):
        raise SimulationError(
            f"invalid shard count {shards!r}: expected an int or 'auto'"
        ) from None
    if n == 0:
        return os.cpu_count() or 1
    if n < 0:
        raise SimulationError(f"shard count must be >= 0 or 'auto', got {n}")
    return n


class ShardWorkerError(SimulationError):
    """A shard worker raised; carries the worker-side traceback."""

    def __init__(self, shard: int, worker_traceback: str) -> None:
        self.shard = shard
        self.worker_traceback = worker_traceback
        super().__init__(
            f"shard worker {shard} failed:\n{worker_traceback.rstrip()}"
        )


class ShardProgramSpec:
    """A picklable recipe for building a node program inside a worker.

    ``builder(*args, **kwargs)`` must return a fresh
    :class:`~repro.netsim.NodeProgram`; builder and arguments must be
    picklable (module-level callables pickle by reference).  When
    ``telemetry_kwarg`` is set, the worker passes its local bus under that
    keyword so layer 2-5 publishers inside the shard emit into the relay.

    Example::

        spec = ShardProgramSpec(make_solve_sat, "max_occurrence",
                                rng=random.Random(7), simplify="single")
        machine = ShardedMachine(topology, spec, shards=4)
    """

    __slots__ = ("builder", "args", "kwargs", "telemetry_kwarg")

    def __init__(
        self,
        builder: Callable[..., Any],
        *args: Any,
        telemetry_kwarg: Optional[str] = None,
        **kwargs: Any,
    ) -> None:
        if not callable(builder):
            raise SimulationError(f"program builder {builder!r} is not callable")
        self.builder = builder
        self.args = args
        self.kwargs = kwargs
        self.telemetry_kwarg = telemetry_kwarg

    def build(self, telemetry: Any = None) -> Any:
        kwargs = dict(self.kwargs)
        if self.telemetry_kwarg is not None:
            kwargs[self.telemetry_kwarg] = telemetry
        return self.builder(*self.args, **kwargs)

    def __getstate__(self):
        return (self.builder, self.args, self.kwargs, self.telemetry_kwarg)

    def __setstate__(self, state):
        self.builder, self.args, self.kwargs, self.telemetry_kwarg = state


class _EventCollector:
    """Worker-bus subscriber that keeps events as relay-ready tuples."""

    __slots__ = ("bus", "events")

    def __init__(self, bus: Any) -> None:
        self.bus = bus
        self.events: List[Tuple[Any, ...]] = []
        bus.attach(self)

    def on_event(self, ev: Any) -> None:
        self.events.append((ev.step, ev.layer, ev.name, ev.node, ev.dur, ev.attrs))

    def drain(self) -> List[Tuple[Any, ...]]:
        # the worker's last partial batch is still in its ring
        self.bus.flush()
        out = self.events
        self.events = []
        return out


class _WorkerMachineFacade:
    """The ``ctx.machine`` a shard's node programs see.

    Mirrors the send-validation the serial machine performs (bounds,
    adjacency, full-topology self-send — same error types and messages)
    but records the side effects as intents instead of mutating queues;
    the coordinator replays them through the real send path.
    """

    __slots__ = (
        "topology",
        "current_step",
        "_full",
        "_neighbour_sets",
        "_has_on_step",
        "_program_name",
        "sends",
        "polls",
        "halted",
    )

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.current_step = -1
        self._full = topology.kind == "full"
        self._neighbour_sets = [
            frozenset(topology.neighbours(n)) for n in topology.nodes()
        ]
        self._has_on_step = False
        self._program_name = "?"
        #: send intents in execution order: (src, dst, payload)
        self.sends: List[Tuple[NodeId, NodeId, Any]] = []
        self.polls: set = set()
        self.halted = False

    def set_program(self, program: Any) -> None:
        self._has_on_step = hasattr(program, "on_step")
        self._program_name = type(program).__name__

    def make_send(self, src: NodeId) -> Callable[[NodeId, Any], None]:
        sends = self.sends

        def send(dst: NodeId, payload: Any) -> None:
            if not (0 <= dst < self.topology.n_nodes):
                raise SimulationError(f"send to invalid node {dst} from node {src}")
            if not self._full:
                if dst not in self._neighbour_sets[src]:
                    raise AdjacencyError(
                        f"node {src} attempted to send to non-neighbour {dst} "
                        f"(topology {self.topology.describe()})"
                    )
            elif src == dst:
                raise AdjacencyError(f"node {src} attempted to send to itself")
            sends.append((src, dst, payload))

        return send

    def request_poll(self, node: NodeId) -> None:
        if not self._has_on_step:
            raise SimulationError(
                f"program {self._program_name} has no on_step hook"
            )
        self.topology.check_node(node)
        self.polls.add(node)

    def halt(self) -> None:
        self.halted = True

    def queue_depth_of(self, node: NodeId) -> int:
        raise SimulationError(
            "queue_depth_of is unavailable inside a shard worker (inbox "
            "state lives on the coordinator); queue-load work sharing is "
            "not supported by the sharded backend"
        )

    def queue_depths(self) -> List[int]:
        self.queue_depth_of(0)
        raise AssertionError("unreachable")  # pragma: no cover

    def take_intents(self) -> Tuple[List[Tuple[NodeId, NodeId, Any]], List[NodeId], bool]:
        # drain in place: the per-node send closures hold a reference to
        # this exact list, so rebinding ``self.sends`` would orphan them
        sends = self.sends[:]
        self.sends.clear()
        polls = sorted(self.polls)
        self.polls.clear()
        halted = self.halted
        self.halted = False
        return sends, polls, halted


class _ShardCore:
    """One shard's handler executor (shared by both backends)."""

    def __init__(
        self,
        topology: Topology,
        nodes: Sequence[NodeId],
        program: Any,
        collector: Optional[_EventCollector] = None,
    ) -> None:
        self.facade = _WorkerMachineFacade(topology)
        self.program = program
        #: retains worker-bus events for the relay; None in the inline cell,
        #: whose handlers publish straight to the coordinator bus
        self.collector = collector
        self.facade.set_program(program)
        self.contexts: Dict[NodeId, NodeContext] = {}
        for node in nodes:
            neigh = tuple(topology.neighbours(node))
            self.contexts[node] = NodeContext(
                node, neigh, self.facade.make_send(node), self.facade
            )

    def init(self):
        init = self.program.init
        for node in sorted(self.contexts):
            init(self.contexts[node])
        return self.facade.take_intents()

    def poll(self, step: int, nodes: Sequence[NodeId]):
        self.facade.current_step = step
        on_step = self.program.on_step
        contexts = self.contexts
        for node in nodes:
            on_step(contexts[node])
        return self.facade.take_intents()

    def deliver(self, step: int, triples: Sequence[Tuple[NodeId, NodeId, Any]]):
        self.facade.current_step = step
        on_message = self.program.on_message
        contexts = self.contexts
        for node, src, payload in triples:
            on_message(contexts[node], src, payload)
        return self.facade.take_intents()

    def map_nodes(self, step: int, fn: Callable, pairs: Sequence[Tuple[NodeId, Any]]):
        self.facade.current_step = step
        out = []
        for node, arg in pairs:
            out.append((node, fn(self.program, self.contexts[node], arg)))
        sends, polls, halted = self.facade.take_intents()
        if sends or polls or halted:
            raise SimulationError(
                "map_nodes callbacks must not send, request polls, or halt"
            )
        return out

    def release(self) -> None:
        """Free this shard's node states (the inline cell's close)."""
        release_states(self.program, list(self.contexts.values()))
        self.contexts = {}

    def handle(self, msg: Tuple[Any, ...]) -> Any:
        """Answer one coordinator request (everything after the init handshake)."""
        kind = msg[0]
        if kind == "poll":
            return self.poll(msg[1], msg[2])
        if kind == "deliver":
            return self.deliver(msg[1], msg[2])
        if kind == "map":
            return self.map_nodes(msg[1], msg[2], msg[3])
        if kind == "telemetry":
            return self.collector.drain() if self.collector is not None else []
        raise SimulationError(f"unknown shard request {kind!r}")


def _exception_if_picklable(exc: BaseException) -> Optional[BaseException]:
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return None


def _shard_worker_main(
    conn: Any,
    topology: Topology,
    nodes: Tuple[NodeId, ...],
    program_source: Any,
    telemetry_on: bool,
) -> None:
    """Entry point of one persistent shard worker process."""
    try:
        bus = collector = None
        if telemetry_on:
            from ..telemetry import TelemetryBus

            bus = TelemetryBus()
            collector = _EventCollector(bus)
        program = (
            program_source.build(bus)
            if isinstance(program_source, ShardProgramSpec)
            else program_source
        )
        core = _ShardCore(topology, nodes, program, collector)
        if telemetry_on:
            from ..telemetry.probe import install_probes, uninstall_probes

            # a forked worker may inherit the parent's installed probe bus
            uninstall_probes()
            install_probes(bus)
        conn.send(("ok", core.init()))
    except BaseException as exc:  # noqa: BLE001 - relayed to the coordinator
        conn.send(("err", traceback.format_exc(), _exception_if_picklable(exc)))
        conn.close()
        return
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        kind = msg[0]
        if kind == "close":
            conn.send(("ok", None))
            conn.close()
            return
        try:
            conn.send(("ok", core.handle(msg)))
        except BaseException as exc:  # noqa: BLE001 - relayed to the coordinator
            conn.send(("err", traceback.format_exc(), _exception_if_picklable(exc)))


class _InlineCell:
    """In-process shard cell (K=1 and the non-picklable fallback).

    Speaks the worker protocol without the pipe: the first response is
    the init handshake, every later one answers the preceding request.
    """

    def __init__(self, core: _ShardCore) -> None:
        self._core = core
        self.nodes = sorted(core.contexts)
        self._reply: Any = core.init()

    def request(self, msg: Tuple[Any, ...]) -> None:
        self._reply = self._core.handle(msg)

    def response(self) -> Any:
        reply = self._reply
        self._reply = None
        return reply

    def close(self) -> None:
        self._core.release()


class _ProcessCell:
    """Coordinator-side handle of one persistent worker process."""

    def __init__(
        self,
        shard: int,
        ctx: Any,
        topology: Topology,
        nodes: Sequence[NodeId],
        program_source: Any,
        telemetry_on: bool,
    ) -> None:
        self.shard = shard
        self.nodes = sorted(nodes)
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker_main,
            args=(
                child,
                topology,
                tuple(self.nodes),
                program_source,
                telemetry_on,
            ),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        self._proc.start()
        child.close()
        self._closed = False

    def request(self, msg: Tuple[Any, ...]) -> None:
        self._conn.send(msg)

    def response(self) -> Any:
        try:
            reply = self._conn.recv()
        except EOFError:
            raise ShardWorkerError(
                self.shard, "worker process exited without replying"
            ) from None
        if reply[0] == "ok":
            return reply[1]
        _tag, worker_tb, exc = reply
        if exc is not None:
            raise exc
        raise ShardWorkerError(self.shard, worker_tb)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.send(("close",))
            self._conn.recv()
        except (OSError, EOFError, BrokenPipeError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass
        self._proc.join(timeout=5)
        if self._proc.is_alive():  # pragma: no cover - defensive
            self._proc.terminate()
            self._proc.join(timeout=5)


def _shippable(payload: Any) -> bool:
    try:
        pickle.dumps(payload)
        return True
    except Exception:
        return False


class ShardedMachine(Machine):
    """A :class:`Machine` whose node handlers run in shard workers.

    Drop-in for :class:`Machine` wherever programs do not read live
    machine state from handlers: same constructor keywords, same
    :meth:`step`/:meth:`run`/:meth:`snapshot`/:meth:`restore`, same trace
    and digests.  Additional parameters:

    shards:
        Shard count request (``None`` → :data:`SHARDS_ENV_VAR` → 1;
        ``"auto"``/``0`` → CPU count).  Clamped to ``n_nodes``.
        Nodes are split into contiguous ``strip`` ranges; the resulting
        edge cut is exposed as :attr:`edge_cut` and reported on the
        telemetry bus as the ``l1.shard_edge_cut`` / ``l1.shard_count``
        counters.
    shard_backend:
        ``"process"`` (persistent worker processes), ``"inline"``
        (in-process cells — the serial fallback with identical
        semantics), or ``"auto"`` (default: ``process`` when K > 1 and
        the program + topology pickle, else ``inline``).
    mp_context:
        A :mod:`multiprocessing` context or start-method name
        (``"fork"``/``"spawn"``/``"forkserver"``); default is the
        platform default.  All shipped state is spawn-safe.

    Workers are persistent; call :meth:`close` (or use the machine as a
    context manager) to shut them down.  They are daemonic, so an
    unclosed machine cannot hang interpreter exit.
    """

    _init_node_programs = False

    def __init__(
        self,
        topology: Topology,
        program: Any,
        *,
        shards: Any = None,
        shard_backend: str = "auto",
        mp_context: Any = None,
        **machine_kwargs: Any,
    ) -> None:
        self._cells: List[Any] = []
        judge("shard_backend", shard_backend)
        k = min(resolve_shards(shards), topology.n_nodes)
        spec = program if isinstance(program, ShardProgramSpec) else None
        if shard_backend == "auto":
            backend = (
                "process"
                if k > 1 and _shippable((program, topology))
                else "inline"
            )
        else:
            backend = shard_backend
        telemetry = machine_kwargs.get("telemetry")
        if spec is not None:
            # the coordinator's local instance only provides program
            # *shape* (on_step presence, scheduler templates for layer
            # snapshots); in inline mode it also executes, so it gets the
            # real bus there
            local_program = spec.build(telemetry if backend == "inline" else None)
        else:
            local_program = program
        super().__init__(topology, local_program, **machine_kwargs)
        if not self._unbounded_fifo:
            raise SimulationError(FIFO_ONLY_MSG)
        self.shards = k
        self.shard_backend = backend
        self.partition = partition_strip(topology, k)
        self.edge_cut = edge_cut(topology, self.partition)
        #: owning cell index per node
        self._cell_of: List[int] = [0] * topology.n_nodes
        try:
            if backend == "inline":
                # one in-process cell owns every node
                core = _ShardCore(topology, list(topology.nodes()), local_program)
                self._cells.append(_InlineCell(core))
            else:
                if isinstance(mp_context, str) or mp_context is None:
                    mp_context = multiprocessing.get_context(mp_context)
                if not _shippable((program, topology)):
                    raise SimulationError(
                        "shard_backend='process' needs a picklable program and "
                        "topology; wrap unpicklable programs in a ShardProgramSpec "
                        "or use shard_backend='inline'"
                    )
                for shard, nodes in enumerate(self.partition):
                    self._cells.append(
                        _ProcessCell(
                            shard,
                            mp_context,
                            topology,
                            nodes,
                            program,
                            telemetry is not None,
                        )
                    )
            for index, cell in enumerate(self._cells):
                for node in cell.nodes:
                    self._cell_of[node] = index
            # every cell's first reply is its init-time intents (the
            # handshake doubles as readiness); serial init runs nodes in
            # ascending order, each node's sends inline
            intents = self._gather(range(len(self._cells)))
            self._replay(self.current_step, sorted(intents[0]), intents)
        except BaseException:
            self.close()
            raise
        tel = self._telemetry
        if tel is not None:
            # counters, not events: events_emitted must stay bit-equal to a
            # serial run so checkpoints digest identically across backends
            tel.count(1, "shard_count", self.shards)
            tel.count(1, "shard_edge_cut", self.edge_cut)

    # -- worker lifecycle ------------------------------------------------

    def close(self) -> None:
        """Shut down the shard workers, or free the inline cell's node
        states, then free the coordinator's side (idempotent)."""
        cells = getattr(self, "_cells", None)
        self._cells = []
        for cell in cells or ():
            cell.close()
        super().close()

    def __enter__(self) -> "ShardedMachine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, kind: str, step: int, per_cell: Dict[int, list]):
        """Ship one round to the owning cells; return their merged intents."""
        cells = self._cells
        order = sorted(per_cell)
        for index in order:
            cells[index].request((kind, step, per_cell[index]))
        return self._gather(order)

    def _gather(self, order: Sequence[int]):
        """Merge the pending replies of the cells in ``order``.

        Returns ``(groups, polls, halted)`` where ``groups`` maps source
        node to its send intents in execution order.
        """
        cells = self._cells
        groups: Dict[NodeId, List[Tuple[NodeId, Any]]] = {}
        polls: List[NodeId] = []
        halted = False
        for index in order:
            sends, cell_polls, cell_halted = cells[index].response()
            for src, dst, payload in sends:
                bucket = groups.get(src)
                if bucket is None:
                    groups[src] = [(dst, payload)]
                else:
                    bucket.append((dst, payload))
            polls.extend(cell_polls)
            halted = halted or cell_halted
        return groups, polls, halted

    def _replay(
        self,
        step: int,
        nodes: Sequence[NodeId],
        intents: Tuple[Dict[NodeId, List[Tuple[NodeId, Any]]], List[NodeId], bool],
        record: Optional[Callable[..., None]] = None,
    ) -> None:
        """Apply one round's merged intents on the coordinator, in serial order.

        ``nodes`` are the round's handlers in ascending order; each node's
        sends go through the real ``_send_from`` exactly where the serial
        round would have made them (after that node's ``deliver`` record,
        when a subscriber retains events), so message ids, fault draws,
        trace records and the event stream come out bit-identical.
        """
        groups, polls, halted = intents
        send_from = self._send_from
        for node in nodes:
            if record is not None:
                record(step, 1, "deliver", node)
            sends = groups.get(node)
            if sends:
                for dst, payload in sends:
                    send_from(node, dst, payload)
        if polls:
            self._poll_requests.update(polls)
        if halted:
            self._halted = True

    # -- the two handler rounds (the rest of the step is Machine.step) ---

    # benchmarks/e2e/tracer.py wraps ShardedMachine.__dict__["step"] to time
    # the coordinator step apart from the serial machine's
    step = Machine.step

    def _poll_round(self, step: int, polled: List[NodeId]) -> None:
        cell_of = self._cell_of
        per_cell: Dict[int, List[NodeId]] = {}
        for node in polled:
            per_cell.setdefault(cell_of[node], []).append(node)
        self._replay(step, polled, self._dispatch("poll", step, per_cell))

    def _delivery_round(
        self,
        step: int,
        delivered: List[NodeId],
        record: Optional[Callable[..., None]],
    ) -> None:
        # the serial round's pops, all taken before the handlers run (order-
        # equivalent for unbounded FIFO, the only discipline accepted here)
        active = self._active
        pop_fns = self._pop_fns
        depths = self._depths
        cell_of = self._cell_of
        per_cell: Dict[int, List[Tuple[NodeId, NodeId, Any]]] = {}
        write = 0
        for node in delivered:
            env = pop_fns[node]()
            depth = depths[node] - 1
            depths[node] = depth
            if depth:
                active[write] = node
                write += 1
            per_cell.setdefault(cell_of[node], []).append(
                (node, env.src, env.payload)
            )
        n0 = len(delivered)
        if write != n0:
            del active[write:n0]
        self._replay(
            step, delivered, self._dispatch("deliver", step, per_cell), record
        )

    def run(self, *args: Any, **kwargs: Any):
        report = super().run(*args, **kwargs)
        self.drain_telemetry()
        return report

    # -- cross-shard services -------------------------------------------

    def map_nodes(
        self,
        fn: Callable[[Any, NodeContext, Any], Any],
        args: Optional[Dict[NodeId, Any]] = None,
    ) -> Dict[NodeId, Any]:
        """Run ``fn(program, ctx, arg)`` for every node inside its shard.

        ``fn`` must be a module-level (picklable-by-reference) callable and
        must not send, poll, or halt.  Returns ``{node: result}``.  This is
        the gather/scatter primitive the layer-2 scheduler uses to compose
        checkpoints: per-node state never leaves its worker except as the
        snapshot data ``fn`` returns.
        """
        step = self.current_step
        cells = self._cells
        for cell in cells:
            pairs = [
                (node, None if args is None else args.get(node))
                for node in cell.nodes
            ]
            cell.request(("map", step, fn, pairs))
        out: Dict[NodeId, Any] = {}
        for cell in cells:
            for node, result in cell.response():
                out[node] = result
        return out

    def drain_telemetry(self) -> int:
        """Relay collected worker events onto the coordinator bus.

        Called automatically at the end of :meth:`run` and by the stack
        before composing checkpoint layers; returns the number of events
        relayed.  Counters, histograms and ``events_emitted`` end up equal
        to a serial run's; only stream interleaving may differ.
        """
        tel = self._telemetry
        if tel is None or not self._cells:
            return 0
        cells = self._cells
        for cell in cells:
            cell.request(("telemetry",))
        relayed = 0
        for cell in cells:
            for step_, layer, name, node, dur, attrs in cell.response():
                tel.emit(layer, name, step_, node, dur, attrs)
                relayed += 1
        tel.flush()
        return relayed

    def state_of(self, node: NodeId) -> Any:
        raise SimulationError(
            "node state lives inside shard workers; use "
            "ShardedMachine.map_nodes(fn) to read or update it in place"
        )
