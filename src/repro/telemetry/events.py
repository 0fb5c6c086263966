"""Structured telemetry events and the cross-layer event taxonomy.

Every layer of the stack publishes :class:`TelemetryEvent` values to a
:class:`~repro.telemetry.bus.TelemetryBus`.  An event is deliberately tiny —
six slots, no inheritance — because a traced simulation can emit one event
per message send *and* per delivery; the whole pipeline is built so that a
simulation with **no** bus attached pays exactly one ``is None`` check per
potential event (see ``docs/observability.md`` and ``docs/performance.md``
for measured overhead).

No publisher builds one: every publication is staged as a plain
``(step, layer, name, node, dur, attrs)`` tuple in the bus's ring buffer —
the slot order matches this class's constructor — and the bus materialises
:class:`TelemetryEvent` objects at ``flush``, only for subscribers that
keep events.  Aggregating subscribers (metrics) never see per-message
objects at all; they consume coalesced per-step deltas (see
:mod:`repro.telemetry.bus`).

A layer 2-5 instant of :data:`TALLIED` costs its publisher no call: it
bumps the instant's int slot, ``bus.tally[SLOT[layer, name]] += 1``, and
only for an audience that keeps events stages the event with
``bus.event(slot, *values)``, which stamps the step and node of the drain
that runs the handler and names the values from :data:`TALLIED`.

Taxonomy (the full per-layer list lives in ``docs/observability.md``):

=====  ==========  =====================================================
layer  constant    representative events
=====  ==========  =====================================================
1      L1_NETSIM   ``send``, ``deliver``, ``drop``, ``queued`` (counter);
                   with reliable delivery on: ``retransmit``, ``ack``,
                   ``dedup``, ``link_retries`` (span; per-message retry
                   count histogram)
2      L2_SCHED    ``context_switch``, ``run_queue`` (counter),
                   ``budget_exhausted``
3      L3_MAPPING  ``ticket_issue``, ``ticket_claim``, ``ticket_forward``,
                   ``reply_sent``, ``reply_delivered``, ``cancel_sent``,
                   ``status_broadcast``
4      L4_RECUR    ``invocation`` (span), ``call``, ``sync``, ``result``,
                   ``choice_win``, ``choice_exhausted``, ``cancelled``,
                   ``late_reply``, ``dup_work``
5      L5_APP      application probes, e.g. ``dpll.branch`` /
                   ``dpll.backtrack``
=====  ==========  =====================================================

Conventions:

* ``step`` is the simulation time step the event belongs to (the clock of
  every exporter); for *span* events it is the **start** step.
* ``node`` is the simulated node the event happened on, or ``-1`` for
  machine-wide events (e.g. the per-step ``queued`` counter).
* ``dur`` is ``None`` for instant events and a step count (>= 0) for spans.
* counter-style events carry a numeric ``value`` key in ``attrs``; the
  Chrome exporter renders them as counter tracks.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = [
    "TelemetryEvent",
    "EVENT_ATTRS",
    "TALLIED",
    "SLOT",
    "TALLIED_GAUGES",
    "L1_NETSIM",
    "L2_SCHED",
    "L3_MAPPING",
    "L4_RECURSION",
    "L5_APP",
    "LAYER_NAMES",
]

#: layer identifiers (match the paper's Figure 2 numbering)
L1_NETSIM = 1
L2_SCHED = 2
L3_MAPPING = 3
L4_RECURSION = 4
L5_APP = 5

#: human-readable layer titles (used by exporters as track/process names)
LAYER_NAMES: Dict[int, str] = {
    L1_NETSIM: "layer 1 - netsim",
    L2_SCHED: "layer 2 - sched",
    L3_MAPPING: "layer 3 - mapping",
    L4_RECURSION: "layer 4 - recursion",
    L5_APP: "layer 5 - app",
}

#: The attribute names of every layer 2-4 instant, in ``attrs`` order:
#: :meth:`~repro.telemetry.TelemetryBus.event` zips a row (through
#: :data:`TALLIED`) with the values a publisher passes.
#: ``docs/observability.md`` lists the same names.
EVENT_ATTRS: Dict[Tuple[int, str], Tuple[str, ...]] = {
    (2, "context_switch"): ("from_pid", "to_pid"),
    (2, "budget_exhausted"): ("pending",),
    (3, "ticket_issue"): ("ticket", "dst", "hint"),
    (3, "ticket_claim"): ("ticket", "hops"),
    (3, "ticket_forward"): ("ticket", "dst", "shared"),
    (3, "reply_sent"): ("ticket", "route_len"),
    (3, "reply_delivered"): ("ticket",),
    (3, "external_result"): (),
    (3, "cancel_sent"): ("ticket", "dst"),
    (3, "status_broadcast"): ("count", "fanout"),
    (4, "call"): ("inv", "ticket"),
    (4, "sync"): ("inv", "pending"),
    (4, "choice"): ("inv", "calls"),
    (4, "choice_win"): ("inv", "ticket"),
    (4, "choice_exhausted"): ("inv",),
    (4, "result"): ("inv",),
    (4, "cancelled"): ("inv",),
    (4, "late_reply"): ("ticket",),
    (4, "dup_work"): ("ticket",),
}


#: Every instant a publisher counts in a tally slot of the bus, in slot
#: order, with the attribute names of its staged event: the layer 2-4
#: instants of :data:`EVENT_ATTRS`, the ``run_queue`` sample of a message a
#: one-process scheduler dispatches directly (see :data:`TALLIED_GAUGES`),
#: and the layer-5
#: probes of the bundled DPLL solver.
TALLIED: Dict[Tuple[int, str], Tuple[str, ...]] = {
    **EVENT_ATTRS,
    (2, "run_queue"): ("value",),
    (5, "dpll.branch"): ("var", "depth", "clauses"),
    (5, "dpll.backtrack"): ("depth", "reason"),
}

#: ``(layer, name)`` -> its slot in :attr:`TelemetryBus.tally`, fixed at import
SLOT: Dict[Tuple[int, str], int] = {key: slot for slot, key in enumerate(TALLIED)}

#: The tallied instants that are also a gauge sample of one fixed value:
#: ``TelemetryBus.flush`` folds each bump of their slot as a sample of that
#: value, after every sample the step published by a call.  The one row is
#: the ``run_queue`` sample of a message a one-process scheduler
#: dispatches directly: the drain it stands for would find a queue of 1.
#: Folding those samples last is exact because ``Machine.step`` runs every
#: polled drain (the only kind that can sample another length) before its
#: delivery round, every delivery-round drain of such a scheduler samples
#: 1, and the machine flushes the bus at every step boundary.
TALLIED_GAUGES: Dict[Tuple[int, str], int] = {(2, "run_queue"): 1}


class TelemetryEvent:
    """One structured observation published on the bus.

    Attributes
    ----------
    step:
        Simulation step (start step for spans; ``-1`` = before step 0).
    layer:
        Publishing layer, 1..5 (see the module constants).
    name:
        Event name within the layer's taxonomy.
    node:
        Simulated node id, or ``-1`` for machine-wide events.
    dur:
        ``None`` for instant events; duration in steps for spans.
    attrs:
        Optional payload dict (kept ``None`` when empty to avoid
        allocating a dict per hot-path event).
    """

    __slots__ = ("step", "layer", "name", "node", "dur", "attrs")

    def __init__(
        self,
        step: int,
        layer: int,
        name: str,
        node: int = -1,
        dur: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.step = step
        self.layer = layer
        self.name = name
        self.node = node
        self.dur = dur
        self.attrs = attrs

    @property
    def is_span(self) -> bool:
        """True for duration (span) events."""
        return self.dur is not None

    @property
    def is_counter(self) -> bool:
        """True for counter-style events (numeric ``value`` attribute)."""
        return self.attrs is not None and "value" in self.attrs

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (used by JSON dumps and tests)."""
        d: Dict[str, Any] = {
            "step": self.step,
            "layer": self.layer,
            "name": self.name,
            "node": self.node,
        }
        if self.dur is not None:
            d["dur"] = self.dur
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = f" dur={self.dur}" if self.dur is not None else ""
        attrs = f" {self.attrs!r}" if self.attrs else ""
        return (
            f"TelemetryEvent(t={self.step} L{self.layer} {self.name} "
            f"node={self.node}{span}{attrs})"
        )
