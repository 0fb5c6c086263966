"""The assembled five-layer stack (the paper's core contribution).

:class:`HyperspaceStack` wires the layers together:

=====  =======================================  =========================
layer  module                                   role
=====  =======================================  =========================
1      :class:`repro.netsim.Machine`            simulated message passing
2      :class:`repro.sched.SchedulerProgram`    node-level scheduling
3      :class:`repro.mapping.MappingService`    ticketed sends + mapping
4      :class:`repro.recursion.RecursionEngine` continuations
5      your generator function                  problem logic
=====  =======================================  =========================

and exposes the layer-5 experience: hand it a recursive generator function
and an argument, get back the result plus a full profiling report::

    from repro import HyperspaceStack, Torus
    from repro.apps.sumrec import calculate_sum

    stack = HyperspaceStack(Torus((8, 8)), mapper="lbn")
    result, report = stack.run_recursive(calculate_sum, 10)

Ticket-style (layer-3) applications run through :meth:`run_ticketed`.

Runs are checkpointable: pass ``checkpoint_every`` (plus a directory or a
sink callable) to :meth:`run_recursive` to capture the entire stack's state
— every layer, via the uniform snapshot/restore protocol of
:mod:`repro.state` — at regular step boundaries, and resume an interrupted
run with :meth:`resume_recursive`.  See ``docs/checkpointing.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .domains import DOMAINS, judge
from .errors import ReliabilityError, SimulationError
from .mapping import MappedApp, MappingService, queue_depth_load
from .netsim import (
    EMPTY_MSG,
    FaultModel,
    Machine,
    ReliableLinks,
    ShardProgramSpec,
    ShardedMachine,
    SimulationReport,
    TraceRecorder,
    resolve_shards,
)
from .netsim.sharded import SHARE_SHARD_MSG
from .recursion import EngineStats, RecursionEngine, RecursiveFunction
from .reliability import ReliabilityConfig
from .rng import substream
from .sched import SchedulerProgram
from .telemetry import TelemetryBus
from .telemetry.probe import install_probes, uninstall_probes
from .topology import NodeId, Topology

__all__ = ["HyperspaceStack", "StackRun"]

#: the stack's guard and the engine's ``retry-limit`` rule say it alike
RETRY_NEEDS_RELIABLE_MSG = "retry_limit needs reliable=True (it configures the layer-1.5 protocol)"


def _build_tower(
    app: Any,
    *,
    ticketed: bool,
    cancellation: bool,
    mapper: str,
    status: Optional[int],
    budget: Optional[int],
    telemetry: Optional[TelemetryBus] = None,
    **service_kwargs: Any,
) -> SchedulerProgram:
    """Build the layer 2-4 tower (engine → mapping service → scheduler).

    The one place the chain is wired: a serial run builds it with the
    stack's bus, a sharded run ships it as a
    :class:`~repro.netsim.ShardProgramSpec` recipe and every worker
    rebuilds an identical tower (same seeds, same per-node substreams)
    on its local bus.  ``app`` is a layer-5 generator function (or a
    recipe for one) unless ``ticketed`` marks a ready layer-3
    :class:`~repro.mapping.MappedApp`.
    """
    if isinstance(app, ShardProgramSpec):
        app = app.build()
    if not ticketed:
        app = RecursionEngine(app, cancellation=cancellation, telemetry=telemetry)
    service = MappingService(
        app, mapper, status, telemetry=telemetry, **service_kwargs
    )
    return SchedulerProgram([service], budget=budget, telemetry=telemetry)


def _collect_node_rpc(
    program: SchedulerProgram, ctx, recursive: bool
) -> Tuple[List[Any], Optional[EngineStats]]:
    """map_nodes callback: one node's external results + layer-4 stats."""
    state = ctx.state.proc_ctxs[0].state
    stats = None
    if recursive:
        stats = RecursionEngine.stats_of(MappingService.app_state_of(state))
    return list(MappingService.results_of(state)), stats


class StackRun:
    """Everything observable about one completed stack run."""

    __slots__ = ("machine", "report", "results", "engine_stats", "scheduler")

    def __init__(
        self,
        machine: Machine,
        report: SimulationReport,
        results: List[Any],
        engine_stats: Optional[EngineStats],
        scheduler: Optional[SchedulerProgram],
    ) -> None:
        self.machine = machine
        self.report = report
        #: external results delivered at the trigger node (usually length 1)
        self.results = results
        #: aggregated layer-4 counters (None for ticket-style and bare runs)
        self.engine_stats = engine_stats
        #: the layer-2 program (None for a bare layer-1 program run)
        self.scheduler = scheduler

    @property
    def result(self) -> Any:
        """The (single) root result, or None if the run did not finish."""
        return self.results[0] if self.results else None


class HyperspaceStack:
    """A configured hyperspace machine ready to run combinatorial solvers.

    A keyword that is also a :class:`~repro.engine.RunSpec` field is judged
    at construction by its row in :data:`repro.domains.DOMAINS`.

    Parameters
    ----------
    topology:
        The machine's interconnect.
    mapper:
        Layer-3 mapping algorithm, a name in :data:`repro.mapping.MAPPERS`:
        ``"rr"`` (round robin, default), ``"lbn"`` (least busy neighbour),
        ``"random"`` or ``"hint"``.
    status:
        Explicit status broadcasts for adaptive mapping: ``None`` (piggyback
        only) or an int threshold >= 1 (see
        :class:`~repro.mapping.MappingService`).
    cancellation:
        Layer-4 extension: actively cancel losing speculative subtrees.
    forward_hops:
        Layer-3 extension: extra hops work travels before executing.
    share_threshold:
        Layer-3 work-sharing extension (paper Figure 2's "work
        sharing/stealing"): a node already holding at least this many live
        invocations pushes newly arriving work onward to a mapper-chosen
        neighbour instead of executing it.  ``None`` (default) disables
        sharing.  The load metric is selected by ``share_load``:
        ``"queue"`` (default, inbox backlog) or ``"invocations"``.
    seed:
        Master seed for all per-node random streams.
    scheduler_budget:
        Max messages a node handles per step (None = run to completion).
    queue_policy / queue_capacity:
        Layer-1 inbox configuration (defaults: unbounded FIFO, as in the
        paper).
    record_queue_depths:
        Store the per-step per-node queue-depth matrix (needed only for
        fine-grained unfolding analyses; costs O(n_nodes) per step).
    size_fn:
        Optional layer-1 message-size model for bandwidth accounting
        (see :mod:`repro.netsim.sizing`; ``RunSpec.sat_sizing`` passes the
        SAT envelope sizer).
    latency:
        Layer-1 link latency: extra in-flight steps per message, the same
        int >= 0 on every link (default 0, the paper's next-step delivery).
    drop / duplicate:
        Layer-1 link fault rates (Bernoulli per send; the fault stream is
        seeded from ``seed``, so runs stay reproducible).  Defaults 0.0 —
        the paper's perfectly reliable links.
    reliable:
        ``True`` enables the layer-1.5 reliable-delivery protocol
        (:mod:`repro.reliability`).  With it on, the stack's verdicts are
        immune to the configured ``drop``/``duplicate`` rates; off
        (default), faults reach the upper layers unprotected.
    retry_limit:
        The protocol's retransmissions per frame before it gives up
        (``None``: the :class:`~repro.reliability.ReliabilityConfig`
        default); needs ``reliable=True``.
    telemetry:
        Cross-layer observability: ``None`` (default, zero overhead), an
        existing :class:`~repro.telemetry.TelemetryBus`, or ``True`` to
        create a fresh bus.  The bus is threaded through every layer and
        exposed as :attr:`telemetry`; layer-5 probes are installed for the
        duration of each run.
    shards:
        Run the layer-1 backend sharded across worker processes
        (:class:`~repro.netsim.ShardedMachine`): an int, ``"auto"`` (one
        shard per CPU), or ``None`` (default) to consult ``REPRO_SHARDS``
        and fall back to the serial machine.  Sharded runs are
        bit-identical to serial ones — same schedule, verdicts, digests
        and telemetry counters; see ``docs/parallelism.md``.  Work sharing
        (``share_threshold``) and :meth:`run_ticketed` require the serial
        backend.
    shard_backend:
        ``"auto"`` (default), ``"process"``, or ``"inline"`` — forwarded
        to :class:`~repro.netsim.ShardedMachine`.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        mapper: str = "rr",
        status: Optional[int] = None,
        cancellation: bool = False,
        forward_hops: int = 0,
        share_threshold: Optional[int] = None,
        share_load: str = "queue",
        seed: int = 0,
        scheduler_budget: Optional[int] = None,
        queue_policy: str = "fifo",
        queue_capacity: Optional[int] = None,
        record_queue_depths: bool = False,
        size_fn=None,
        latency: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reliable: bool = False,
        retry_limit: Optional[int] = None,
        telemetry: Union[None, bool, TelemetryBus] = None,
        shards: Any = None,
        shard_backend: str = "auto",
    ) -> None:
        # ``shards`` also takes None and "auto" here: resolve_shards judges it
        knobs = locals()
        for name in DOMAINS:
            if name in knobs and name != "shards":
                judge(name, knobs[name])
        if retry_limit is not None and not reliable:
            raise ReliabilityError(RETRY_NEEDS_RELIABLE_MSG)
        self.topology = topology
        self.mapper = mapper
        self.status = status
        self.cancellation = cancellation
        self.forward_hops = forward_hops
        self.share_threshold = share_threshold
        self.share_load = share_load
        self.seed = seed
        self.scheduler_budget = scheduler_budget
        self.queue_policy = queue_policy
        self.queue_capacity = queue_capacity
        self.record_queue_depths = record_queue_depths
        self.size_fn = size_fn
        self.latency = latency
        self.drop = drop
        self.duplicate = duplicate
        #: Machine(reliability=...): off, on, or on with a retransmission cap
        self.reliable = (
            ReliabilityConfig(retry_limit=retry_limit) if retry_limit is not None else reliable
        )
        if telemetry is True:
            telemetry = TelemetryBus()
        elif telemetry is False:
            telemetry = None
        #: the cross-layer event bus, or None when observability is off
        self.telemetry: Optional[TelemetryBus] = telemetry
        #: shard count resolved once (explicit arg, then REPRO_SHARDS, then 1)
        self.shards = min(resolve_shards(shards), topology.n_nodes)
        self.shard_backend = shard_backend
        if self.shards > 1 and self.share_threshold is not None:
            raise SimulationError(SHARE_SHARD_MSG)
        #: populated by the most recent run_* call
        self.last_run: Optional[StackRun] = None
        #: the machine of the most recent run_* call, from the moment it is
        #: built (a run that raises never reaches last_run) until close()
        self._machine: Optional[Machine] = None

    # ------------------------------------------------------------------

    def _tower(
        self, app: Any, *, ticketed: bool, halt_on_result: bool
    ) -> ShardProgramSpec:
        """The recipe of this stack's layer 2-4 tower over ``app`` (see
        :func:`_build_tower` for what ``app`` may be)."""
        load_fn = None
        if self.share_threshold is not None and not ticketed:
            load_fn = (
                queue_depth_load
                if self.share_load == "queue"
                else RecursionEngine.load_probe
            )
        return ShardProgramSpec(
            _build_tower,
            app,
            ticketed=ticketed,
            cancellation=self.cancellation,
            mapper=self.mapper,
            status=self.status,
            budget=self.scheduler_budget,
            seed=self.seed,
            forward_hops=self.forward_hops,
            halt_on_result=halt_on_result,
            share_threshold=self.share_threshold,
            load_fn=load_fn,
            telemetry_kwarg="telemetry",
        )

    def _build_machine(self, source: ShardProgramSpec) -> Machine:
        """Assemble the layer-1 machine that runs ``source`` on every node.

        Serial builds the program here, sharded ships the recipe to its
        workers; every other argument is the same either way.  The fault
        stream is fresh per build, so repeated runs on one stack see
        identical fault schedules.
        """
        faults: FaultModel = ReliableLinks
        if self.drop or self.duplicate:
            faults = FaultModel(
                self.drop, self.duplicate, rng=substream(self.seed, "l1-faults")
            )
        layer1: Dict[str, Any] = dict(
            trace=TraceRecorder(
                self.topology.n_nodes, record_queue_depths=self.record_queue_depths
            ),
            queue_policy=self.queue_policy,
            queue_capacity=self.queue_capacity,
            seed=self.seed,
            size_fn=self.size_fn,
            latency=self.latency,
            faults=faults,
            reliability=self.reliable,
            telemetry=self.telemetry,
        )
        if self.shards > 1:
            return ShardedMachine(
                self.topology,
                source,
                shards=self.shards,
                shard_backend=self.shard_backend,
                **layer1,
            )
        return Machine(self.topology, source.build(self.telemetry), **layer1)

    def _run(
        self,
        source: ShardProgramSpec,
        payload: Any,
        *,
        trigger_node: NodeId,
        max_steps: int,
        recursive: bool = False,
        bare: bool = False,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Union[None, str, Path] = None,
        checkpoint_sink: Optional[Callable[["StackCheckpoint"], None]] = None,
        checkpoint_meta: Optional[Dict[str, Any]] = None,
        resume_from: Union[None, str, Path, "StackCheckpoint"] = None,
    ) -> StackRun:
        """Build → inject (or restore) → run → collect: every run's path.

        ``source`` is the per-node program recipe: a :meth:`_tower`, or
        with ``bare`` a plain layer-1 program with no scheduler above it.
        """
        machine = self._machine = self._build_machine(source)
        scheduler: Optional[SchedulerProgram] = None if bare else machine.program
        if resume_from is not None:
            from .state import StackCheckpoint, load_checkpoint

            ckpt = (
                resume_from
                if isinstance(resume_from, StackCheckpoint)
                else load_checkpoint(resume_from)
            )
            self._restore_layers(machine, scheduler, ckpt)
        else:
            machine.inject(trigger_node, payload)
        machine_sink = None
        if checkpoint_every is not None:
            ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None

            def machine_sink(m: Machine) -> None:
                ckpt = self._compose_checkpoint(m, scheduler, checkpoint_meta)
                if ckpt_dir is not None:
                    from .state import save_checkpoint

                    save_checkpoint(
                        ckpt_dir / f"checkpoint-{m.current_step + 1:08d}.ckpt", ckpt
                    )
                if checkpoint_sink is not None:
                    checkpoint_sink(ckpt)

        bus = self.telemetry
        if bus is not None:
            install_probes(bus)
        try:
            report = machine.run(
                max_steps=max_steps,
                checkpoint_every=checkpoint_every,
                checkpoint_sink=machine_sink,
            )
        finally:
            if bus is not None:
                uninstall_probes()
        results: List[Any] = []
        engine_stats: Optional[EngineStats] = None
        if scheduler is not None:
            # one gather returns (results, engine stats) per node, from
            # wherever the node's state lives
            per_node = machine.map_nodes(
                _collect_node_rpc, dict.fromkeys(self.topology.nodes(), recursive)
            )
            results = per_node[trigger_node][0]
            if recursive:
                engine_stats = EngineStats.summed(
                    [per_node[node][1] for node in self.topology.nodes()]
                )
        run = StackRun(machine, report, results, engine_stats, scheduler)
        self.last_run = run
        return run

    def close(self) -> None:
        """Release the most recent run's machine (idempotent).

        A run keeps its node state (and a sharded run its workers) after
        it returns so that :meth:`snapshot` and ``map_nodes`` can still
        reach it; closing frees it (:meth:`Machine.close`), and the run
        engine calls this in a ``finally`` once the run has been read.
        """
        if self._machine is not None:
            self._machine.close()

    # -- checkpointing (repro.state protocol) --------------------------

    def _compose_layers(
        self, machine: Machine, scheduler: Optional[SchedulerProgram]
    ) -> Dict[str, Any]:
        """Snapshot every active layer of a built machine, keyed by name.

        A bare layer-1 program run has no scheduler and so no ``sched``
        layer: its node state lives outside the snapshot protocol."""
        # relay pending worker events first so the telemetry layer's
        # events_emitted matches a serial run's at this boundary
        machine.drain_telemetry()
        layers: Dict[str, Any] = {"netsim": machine.snapshot()}
        if scheduler is not None:
            layers["sched"] = scheduler.snapshot(machine)
        if machine.reliability is not None:
            layers["reliability"] = machine.reliability.snapshot()
        if self.telemetry is not None:
            layers["telemetry"] = self.telemetry.snapshot()
        return layers

    def _compose_checkpoint(
        self,
        machine: Machine,
        scheduler: Optional[SchedulerProgram],
        meta: Optional[Dict[str, Any]] = None,
    ) -> "StackCheckpoint":
        from .state import StackCheckpoint

        full_meta: Dict[str, Any] = {
            "step": machine.current_step,
            "topology": self.topology.describe(),
            "n_nodes": self.topology.n_nodes,
            "seed": self.seed,
        }
        if meta:
            full_meta.update(meta)
        return StackCheckpoint.build(self._compose_layers(machine, scheduler), full_meta)

    def _restore_layers(
        self, machine: Machine, scheduler: SchedulerProgram, ckpt: "StackCheckpoint"
    ) -> None:
        """Install a checkpoint into a freshly built, identically configured
        machine/scheduler pair.

        The layer order matters only in that the scheduler restore reaches
        layers 3-5 through contexts the machine restore must not disturb —
        both operate on the already-initialised stack, replacing state, not
        structure.  Reliability state is strict (protected runs cannot
        resume unprotected, or vice versa); telemetry is assembly-local and
        restored only when a bus is attached on both sides.
        """
        from .errors import CheckpointError

        layers = ckpt.layers()
        for required in ("netsim", "sched"):
            if required not in layers:
                raise CheckpointError(
                    f"checkpoint is missing the {required!r} layer state"
                )
        machine.restore(layers["netsim"])
        scheduler.restore(machine, layers["sched"])
        if machine.reliability is not None:
            if "reliability" not in layers:
                raise CheckpointError(
                    "this stack runs the reliability layer but the "
                    "checkpoint carries no reliability state"
                )
            machine.reliability.restore(layers["reliability"])
        elif "reliability" in layers:
            raise CheckpointError(
                "checkpoint carries reliability state but this stack "
                "runs without the reliability layer"
            )
        if self.telemetry is not None and "telemetry" in layers:
            self.telemetry.restore(layers["telemetry"])

    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> "StackCheckpoint":
        """Checkpoint the most recent run's final state.

        Mostly useful for inspection and tests; mid-run checkpoints come
        from ``checkpoint_every``.  ``meta`` entries are merged into the
        checkpoint's self-describing header.
        """
        from .errors import CheckpointError

        if self.last_run is None:
            raise CheckpointError("nothing to snapshot: no run has completed yet")
        return self._compose_checkpoint(
            self.last_run.machine, self.last_run.scheduler, meta
        )

    # ------------------------------------------------------------------

    def run_recursive(
        self,
        fn: RecursiveFunction,
        args: Any,
        *,
        trigger_node: NodeId = 0,
        max_steps: int = 1_000_000,
        strict: bool = True,
        halt_on_result: bool = True,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Union[None, str, Path] = None,
        checkpoint_sink: Optional[Callable[["StackCheckpoint"], None]] = None,
        checkpoint_meta: Optional[Dict[str, Any]] = None,
        resume_from: Union[None, str, Path, "StackCheckpoint"] = None,
    ) -> Tuple[Any, SimulationReport]:
        """Run a layer-5 recursive application to completion.

        ``fn(args)`` becomes the root invocation on ``trigger_node``.  With
        ``halt_on_result`` (default) the machine stops as soon as the root
        result is delivered; with ``halt_on_result=False`` it keeps running
        until quiescent — draining ignored speculative work, which is the
        paper's measurement protocol ("steps between the first (trigger)
        and last messages").  Returns ``(result, report)``; the full
        :class:`StackRun` (engine statistics, machine handle) is available
        as :attr:`last_run`.

        With ``strict`` (default) a run that exhausts ``max_steps`` without
        producing the root result raises :class:`SimulationError`; pass
        ``strict=False`` to get ``(None, report)`` instead.

        Checkpointing: with ``checkpoint_every=k`` the whole stack's state
        is captured after every step whose (absolute) number is a multiple
        of ``k`` and handed to ``checkpoint_sink`` and/or written to
        ``checkpoint_dir`` as ``checkpoint-<step>.ckpt``.  ``resume_from``
        (a path or a loaded :class:`~repro.state.StackCheckpoint`) installs
        a previous checkpoint instead of injecting ``args`` — ``fn`` and
        the stack configuration must match the original run, and ``fn``
        must be deterministic (its generators are replayed; see
        ``docs/checkpointing.md``).  ``max_steps`` bounds the *absolute*
        step counter — a resumed run gets the same total budget as the
        uninterrupted run it continues, not a fresh one.  With
        ``checkpoint_every=None`` (default) the run loop is byte-for-byte
        the uninstrumented one — checkpointing off costs nothing.

        With ``shards > 1`` (constructor/``REPRO_SHARDS``) the run executes
        on the sharded backend.  ``fn`` must then be picklable, or be a
        :class:`~repro.netsim.ShardProgramSpec` recipe rebuilding it
        (needed for closures such as the SAT solver's); checkpoints taken
        sharded resume serially and vice versa.
        """
        from .errors import CheckpointError

        if checkpoint_every is None and (
            checkpoint_dir is not None or checkpoint_sink is not None
        ):
            raise CheckpointError(
                "checkpoint_dir/checkpoint_sink need checkpoint_every"
            )
        if checkpoint_every is not None and checkpoint_dir is None and checkpoint_sink is None:
            raise CheckpointError(
                "checkpoint_every needs a destination: checkpoint_dir "
                "and/or checkpoint_sink"
            )
        run = self._run(
            self._tower(fn, ticketed=False, halt_on_result=halt_on_result),
            args,
            trigger_node=trigger_node,
            max_steps=max_steps,
            recursive=True,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            checkpoint_sink=checkpoint_sink,
            checkpoint_meta=checkpoint_meta,
            resume_from=resume_from,
        )
        if strict and not run.results:
            raise SimulationError(
                f"run did not complete within {max_steps} steps "
                f"(topology {self.topology.describe()}, fn "
                f"{getattr(fn, '__name__', fn)!r})"
            )
        return run.result, run.report

    def resume_recursive(
        self,
        fn: RecursiveFunction,
        checkpoint: Union[str, Path, "StackCheckpoint"],
        **kwargs: Any,
    ) -> Tuple[Any, SimulationReport]:
        """Resume a checkpointed :meth:`run_recursive` run.

        Sugar for ``run_recursive(fn, None, resume_from=checkpoint, ...)``.
        The stack must be configured identically to the one that produced
        the checkpoint (topology, mapper, seed, faults, reliability, ...);
        detectable mismatches raise :class:`~repro.errors.CheckpointError`.
        All :meth:`run_recursive` keyword arguments are accepted, including
        ``checkpoint_every`` to keep checkpointing the resumed run.
        """
        return self.run_recursive(fn, None, resume_from=checkpoint, **kwargs)

    def run_ticketed(
        self,
        app: MappedApp,
        trigger: Any,
        *,
        trigger_node: NodeId = 0,
        max_steps: int = 1_000_000,
        halt_on_result: bool = False,
    ) -> Tuple[List[Any], SimulationReport]:
        """Run a layer-3 (ticket-style) application.

        The raw ``trigger`` payload is injected at ``trigger_node`` and the
        machine runs until quiescent (or until the first external result if
        ``halt_on_result``).  Returns ``(results, report)`` where results
        are the external replies collected at the trigger node.
        """
        if self.shards > 1:
            raise SimulationError(
                "run_ticketed supports only the serial backend; "
                f"this stack is configured with shards={self.shards}"
            )
        run = self._run(
            self._tower(app, ticketed=True, halt_on_result=halt_on_result),
            trigger,
            trigger_node=trigger_node,
            max_steps=max_steps,
        )
        return run.results, run.report

    def run_program(
        self,
        program: ShardProgramSpec,
        trigger: Any = EMPTY_MSG,
        *,
        trigger_node: NodeId = 0,
        max_steps: int = 1_000_000,
        strict: bool = True,
    ) -> SimulationReport:
        """Run a bare layer-1 node program (no layers 2-4 above it).

        ``program`` is a :class:`~repro.netsim.ShardProgramSpec` recipe for
        the :class:`~repro.netsim.NodeProgram` every node runs.  ``trigger``
        is injected at ``trigger_node`` and the machine runs until
        quiescent; with ``strict`` (default) exhausting ``max_steps`` first
        raises :class:`SimulationError`.  Returns the report; node state is
        reachable through ``last_run.machine.map_nodes``.  It lives outside
        the layer-2 snapshot protocol, so these runs cannot checkpoint.
        """
        run = self._run(
            program, trigger, trigger_node=trigger_node, max_steps=max_steps,
            bare=True,
        )
        if strict and not run.report.quiescent:
            raise SimulationError(
                f"run did not complete within {max_steps} steps "
                f"(topology {self.topology.describe()}, bare program)"
            )
        return run.report
