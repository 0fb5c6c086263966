"""Span tracing of the five-layer stack, from outside the program.

The traced pass of the end-to-end benchmark needs to know how much host
time each layer (= each package under ``src/repro``) spends on its own
account.  Nothing under ``src/`` records that yet, so this module wraps
the layers' *public* entry points for the duration of one pass and keeps
a span stack in memory:

* :class:`SpanStack` — open spans as a stack; a closed span's *self
  time* is its duration minus the part covered by its child spans, and
  closed spans are aggregated per ``(layer, name, parent layer)``.
  Self times therefore partition the root spans' durations exactly, also
  when a layer re-enters itself (recursion → mapping → sched → netsim
  down-calls under a netsim → sched → mapping → recursion up-call).
* :class:`StackTracer` — installs class-level wrappers around the layer
  boundaries (and swaps the public ``send`` attribute on the contexts
  each ``init(ctx)`` receives), and removes every one of them again.

Spans sit at these boundaries::

    engine      one root span per execute()          (opened by the caller)
    netsim      Machine.run, NodeContext.send
    sharded     ShardedMachine.__init__/step/map_nodes/close
    reliability ReliableDelivery.send/on_step/end_step
    sched       SchedulerProgram.on_message/on_step, ProcessContext.send
    mapping     MappingService.on_message, MappingContext.call/reply/cancel,
                <Mapper>.choose
    recursion   RecursionEngine.on_work/on_reply/on_cancel
    apps        the layer-5 generator's send, CNF.assign
    telemetry   TelemetryBus.emit/count/record/flush

``Machine.step`` is deliberately *not* a span: on the sparse workload it
runs 330k times a pass and a span per empty step would cost more than
the step.  Its time is the self time of the enclosing ``Machine.run``
span, which is the same layer.

Limits worth knowing when reading the numbers: a wrapper's own cost is
charged partly to the wrapped span and partly to its parent, so layers
with many short spans (``sched``, ``mapping``) read slightly high; under
the process shard backend the layer 2-5 handlers run in worker
processes, where spans are not collected, so only the coordinator side
(``sharded`` and ``netsim``) is attributed.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanStack", "StackTracer"]


class SpanStack:
    """In-memory span stack with per-layer self-time aggregation.

    ``totals`` maps ``(layer, name, parent_layer)`` to
    ``[calls, total_seconds, self_seconds]``; ``parent_layer`` is ``None``
    for root spans.  With ``keep_raw`` every closed span of the *first*
    trace (one id per root span, i.e. per ``execute()``) is also kept as a
    dict for ``--trace-out``.
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, keep_raw: bool = False
    ) -> None:
        self._clock = clock
        #: open spans, innermost last: [layer, name, start, child_seconds, span_id]
        self._open: List[List[Any]] = []
        self.totals: Dict[Tuple[str, str, Optional[str]], List[float]] = {}
        self.raw: Optional[List[Dict[str, Any]]] = [] if keep_raw else None
        self.trace_id = 0
        self._next_span_id = 0

    def push(self, layer: str, name: str) -> None:
        if not self._open:
            self.trace_id += 1
        self._next_span_id += 1
        self._open.append([layer, name, 0.0, 0.0, self._next_span_id])
        # read the clock last so the bookkeeping above is the parent's time
        self._open[-1][2] = self._clock()

    def pop(self) -> None:
        end = self._clock()
        layer, name, start, child, span_id = self._open.pop()
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        key = (layer, name, parent[0] if parent is not None else None)
        agg = self.totals.get(key)
        if agg is None:
            self.totals[key] = [1, duration, duration - child]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child
        if self.raw is not None and self.trace_id == 1:
            self.raw.append({
                "trace": self.trace_id,
                "id": span_id,
                "parent": parent[4] if parent is not None else None,
                "layer": layer,
                "name": name,
                "start": start,
                "end": end,
            })

    def wrap(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a ``(layer, name)`` span around every call."""
        push, pop = self.push, self.pop

        def traced(*args: Any, **kwargs: Any) -> Any:
            push(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- reading the aggregate -------------------------------------------

    def _sum(self, field: int, layer: str, names: Tuple[str, ...]) -> float:
        return sum(
            agg[field] for key, agg in self.totals.items()
            if key[0] == layer and (not names or key[1] in names)
        )

    def calls(self, layer: str, *names: str) -> int:
        """Closed spans of ``layer`` (restricted to ``names`` when given)."""
        return int(self._sum(0, layer, names))

    def total_seconds(self, layer: str, *names: str) -> float:
        """Duration of those spans, children included, summed."""
        return self._sum(1, layer, names)

    def self_seconds(self, layer: str, *names: str) -> float:
        """Self time of those spans, summed."""
        return self._sum(2, layer, names)

    def layers(self) -> List[str]:
        return sorted({key[0] for key in self.totals})

    def root_seconds(self) -> float:
        """Total duration of the root spans (what self times add up to)."""
        return sum(agg[1] for key, agg in self.totals.items() if key[2] is None)


class _TracedGenerator:
    """Stand-in for a layer-5 generator: a span around every ``send``."""

    __slots__ = ("_gen", "_spans")

    def __init__(self, gen: Any, spans: SpanStack) -> None:
        self._gen = gen
        self._spans = spans

    def send(self, value: Any) -> Any:
        self._spans.push("apps", "resume")
        try:
            return self._gen.send(value)
        finally:
            self._spans.pop()

    def close(self) -> None:
        self._gen.close()


class StackTracer:
    """Install and remove the span wrappers around the layer boundaries.

    Use as a context manager around one traced pass.  ``patched`` lists
    every ``(owner, attribute, original)`` that was replaced, so a test
    can check by identity that :meth:`uninstall` restored all of them.
    ``counts`` holds the boundary counters that no report field carries
    (status messages handed to layer 2 by the mapping service).
    """

    def __init__(self, spans: Optional[SpanStack] = None) -> None:
        self.spans = spans if spans is not None else SpanStack()
        self.counts: Dict[str, int] = {"mapping.status_msgs": 0}
        self.patched: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "StackTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- patching primitives ---------------------------------------------

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _span(self, owner: Any, attr: str, layer: str, name: Optional[str] = None) -> None:
        original = owner.__dict__[attr]
        self._replace(owner, attr, self.spans.wrap(layer, name or attr, original))

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    # -- the wrappers ------------------------------------------------------

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer is already installed")
        from repro.apps.sat.cnf import CNF
        from repro.mapping import (
            HintAwareMapper,
            LeastBusyNeighbourMapper,
            MappingContext,
            MappingService,
            RandomMapper,
            RoundRobinMapper,
            StatusMsg,
        )
        from repro.netsim import Machine, ShardedMachine
        from repro.recursion import RecursionEngine
        from repro.reliability import ReliableDelivery
        from repro.sched import SchedulerProgram
        from repro.telemetry import TelemetryBus

        spans = self.spans
        counts = self.counts

        self._span(Machine, "run", "netsim")
        self._span(ShardedMachine, "__init__", "sharded", "spawn")
        self._span(ShardedMachine, "step", "sharded", "coord_step")
        self._span(ShardedMachine, "map_nodes", "sharded", "collect")
        self._span(ShardedMachine, "close", "sharded")
        for attr in ("send", "on_step", "end_step"):
            self._span(ReliableDelivery, attr, "reliability")
        for attr in ("on_message", "on_step"):
            self._span(SchedulerProgram, attr, "sched")
        self._span(MappingService, "on_message", "mapping")
        for attr in ("call", "reply", "cancel"):
            self._span(MappingContext, attr, "mapping")
        for mapper in (RoundRobinMapper, LeastBusyNeighbourMapper,
                       RandomMapper, HintAwareMapper):
            self._span(mapper, "choose", "mapping")
        for attr in ("on_work", "on_reply", "on_cancel"):
            self._span(RecursionEngine, attr, "recursion")
        self._span(CNF, "assign", "apps", "cnf_assign")
        for attr in ("emit", "count", "record", "flush"):
            self._span(TelemetryBus, attr, "telemetry")

        # The contexts' ``send`` is an instance attribute, so it is swapped
        # on each context as the layer above receives it in ``init``.
        sched_init = SchedulerProgram.__dict__["init"]

        def traced_sched_init(program: Any, ctx: Any) -> None:
            sched_init(program, ctx)
            ctx.send = spans.wrap("netsim", "send", ctx.send)

        self._replace(SchedulerProgram, "init", traced_sched_init)

        mapping_init = MappingService.__dict__["init"]

        def traced_mapping_init(service: Any, pctx: Any) -> None:
            mapping_init(service, pctx)
            send = spans.wrap("sched", "send", pctx.send)

            def process_send(dst: Any, payload: Any) -> None:
                if isinstance(payload, StatusMsg):
                    counts["mapping.status_msgs"] += 1
                send(dst, payload)

            pctx.send = process_send

        self._replace(MappingService, "init", traced_mapping_init)

        # Layer 5 is whatever ``engine.fn(payload)`` returns: hand the
        # engine a function whose generators carry a span per resume.
        engine_init = RecursionEngine.__dict__["__init__"]

        def traced_engine_init(engine: Any, fn: Any, *args: Any, **kwargs: Any) -> None:
            engine_init(engine, fn, *args, **kwargs)
            inner = engine.fn

            def traced_fn(payload: Any) -> Any:
                gen = inner(payload)
                # a non-generator is the engine's error to report
                return _TracedGenerator(gen, spans) if hasattr(gen, "send") else gen

            engine.fn = traced_fn

        self._replace(RecursionEngine, "__init__", traced_engine_init)
