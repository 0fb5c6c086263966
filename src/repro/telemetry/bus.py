"""The structured event bus every layer publishes to.

Design constraints (in priority order):

1. **Zero overhead when disabled.**  Components hold ``telemetry=None`` by
   default and guard every emission site with a single
   ``if self._telemetry is not None`` — no bus, no event objects, no calls.
   The layer-1 fast send path (see ``repro/netsim/backend.py``) stays the
   PR-1 optimized code with exactly one extra local ``is None`` test.
2. **Cheap when enabled.**  There is one publishing path and it is
   buffered: nothing a publisher calls reaches a subscriber.  ``emit``
   publishes one whole event into the per-step buffers — a counter delta
   (an instant) or a span-length observation delta (``dur``), a gauge
   delta ``[last, peak, low, n]`` for a numeric ``attrs["value"]``, and,
   only when :attr:`want_events`, the event tuple in a preallocated ring.
   ``count`` / ``observe`` / ``record`` are ``emit`` taken apart, for
   publishers that can do better than one call per event: layer 1 counts a
   step's sends once, and a publisher that would have to *build* ``attrs``
   pairs a ``count`` with a ``record`` guarded by :attr:`want_events`.
   A layer 2-5 instant of :data:`~repro.telemetry.events.TALLIED` costs
   no call at all: its publisher bumps the instant's int slot,
   ``tally[slot] += 1``, and ``flush`` folds the bumped slots into the
   counter deltas and ``events_emitted``.  Only when :attr:`want_events`
   does the publisher also call ``event(slot, *values)``, which stages the
   tuple at the cursor (:attr:`step`, :attr:`node`, set by the scheduler as
   a node starts draining) with the values named from ``TALLIED``.  Layer-5
   ``probe()`` stamps the same cursor.  ``flush`` (called by the machine at
   every step boundary and at the end of a run) is the one place a
   subscriber is called, so subscribers see a step's publications at its
   boundary (a full ring goes out earlier).  No per-publication event
   object, handler call or metric-name formatting.
3. **Deterministic.**  Subscribers are invoked in subscription order,
   synchronously, on the simulation thread; the event stream is a pure
   function of the run (same seed => same events), which is what lets the
   exporter golden tests pin byte-identical traces.  There is one ring, so
   the subscribers that keep events see them in publication order.

Subscriber contract
-------------------

The bus inspects a subscriber once, at attach; it may implement any of:

* ``on_event(event)`` (or be a plain callable of one event) — it *keeps
  events*: every ring tuple reaches it as a
  :class:`~repro.telemetry.events.TelemetryEvent`, and its presence turns
  :attr:`want_events` on;
* ``on_counters(deltas)`` — the ``{(layer, name): n}`` counter deltas;
* ``on_observations(deltas)`` — the ``{(layer, name, value): n}``
  coalesced histogram observations;
* ``on_gauges(deltas)`` — the ``{(layer, name): [last, peak, low, n]}``
  coalesced gauge samples.

A pure aggregator (:class:`~repro.telemetry.MetricsSubscriber`) implements
only the last three, so with it alone no event is ever built.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import SLOT, TALLIED, TALLIED_GAUGES, TelemetryEvent

__all__ = ["TelemetryBus", "Subscriber"]

#: capacity of the event-tuple ring; it flushes when full and at every
#: ``flush``, so the size tunes batching granularity and never drops events
RING_SIZE = 1024

#: What a subscriber that keeps events is called with: any callable taking
#: one event, or the bound ``on_event`` of an object that has one.
Subscriber = Callable[[TelemetryEvent], None]

#: the methods of the subscriber contract (a plain callable is ``on_event``)
_HOOKS = ("on_event", "on_counters", "on_observations", "on_gauges")

#: ``event`` values kept as they are; anything else (a ``Ticket``) is ``str``-ed
_PLAIN = (int, float, str, type(None))

#: per tally slot: its ``(layer, name)`` and the attribute names of its event
_KEYS = tuple(TALLIED)
_NAMES = tuple(TALLIED.values())
#: an untouched tally, compared against at every flush
_IDLE = [0] * len(TALLIED)
#: per tallied gauge: its slot, ``(layer, name)`` and fixed sample value
_GAUGED = tuple((SLOT[key], key, value) for key, value in TALLIED_GAUGES.items())


class TelemetryBus:
    """Buffered publish/subscribe hub for :class:`TelemetryEvent`.

    Typical assembly::

        bus = TelemetryBus()
        log = bus.attach(EventLog())
        exporter = bus.attach(ChromeTraceExporter())
        stack = HyperspaceStack(topology, telemetry=bus)
    """

    __slots__ = (
        "_subscribers",
        "_event_handlers",
        "_counter_subs",
        "_observation_subs",
        "_gauge_subs",
        "events_emitted",
        "want_events",
        "step",
        "node",
        "tally",
        "_counts",
        "_observations",
        "_gauges",
        "_ring",
        "_ring_n",
    )

    def __init__(self) -> None:
        #: attached subscriber objects/callables, in subscription order
        self._subscribers: List[Any] = []
        #: handlers of the subscribers that keep events
        self._event_handlers: List[Subscriber] = []
        #: bound ``on_counters`` / ``on_observations`` / ``on_gauges``
        #: methods of the aggregating subscribers
        self._counter_subs: List[Callable] = []
        self._observation_subs: List[Callable] = []
        self._gauge_subs: List[Callable] = []
        #: total events published (``emit``, ``event`` and ``record``
        #: calls); coalesced counter deltas are not events
        self.events_emitted = 0
        #: True when at least one subscriber keeps events — publishers
        #: check this before building ``record`` arguments
        self.want_events = False
        #: the cursor :meth:`event` and ``probe()`` stamp: the step and node
        #: of the scheduler drain that is running handlers
        self.step = 0
        self.node = -1
        #: one int per :data:`~repro.telemetry.events.TALLIED` instant,
        #: bumped by its publishers and folded (back to 0) by :meth:`flush`
        self.tally: List[int] = list(_IDLE)
        #: coalesced counter deltas: (layer, name) -> n since last flush
        self._counts: Dict[Tuple[int, str], int] = {}
        #: coalesced histogram observations: (layer, name, value) -> n
        self._observations: Dict[Tuple[int, str, int], int] = {}
        #: coalesced gauge samples: (layer, name) -> [last, peak, low, n]
        self._gauges: Dict[Tuple[int, str], List[Any]] = {}
        #: preallocated ring of event tuples (step, layer, name, node,
        #: dur, attrs); ``_ring_n`` is the fill level
        self._ring: List[Any] = [None] * RING_SIZE
        self._ring_n = 0

    # -- subscription ---------------------------------------------------

    def attach(self, subscriber: Any) -> Any:
        """Subscribe and return ``subscriber`` (chains into assignments).

        ``subscriber`` is a callable of one event, or an object exposing
        ``on_event(event)`` and/or the aggregator hooks ``on_counters`` /
        ``on_observations`` / ``on_gauges``.
        """
        if not (callable(subscriber) or any(hasattr(subscriber, h) for h in _HOOKS)):
            raise TypeError(
                f"subscriber {subscriber!r} is neither callable nor has any of {_HOOKS}"
            )
        self._subscribers.append(subscriber)
        self._reclassify()
        return subscriber

    def detach(self, subscriber: Any) -> None:
        """Remove a previously attached subscriber (no-op if absent)."""
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)
            self._reclassify()

    def _reclassify(self) -> None:
        """Rebuild the per-audience dispatch lists from the subscriber set."""
        subs = self._subscribers
        self._event_handlers = [
            getattr(s, "on_event", s)
            for s in subs
            if hasattr(s, "on_event") or callable(s)
        ]
        self._counter_subs = [s.on_counters for s in subs if hasattr(s, "on_counters")]
        self._observation_subs = [
            s.on_observations for s in subs if hasattr(s, "on_observations")
        ]
        self._gauge_subs = [s.on_gauges for s in subs if hasattr(s, "on_gauges")]
        self.want_events = bool(self._event_handlers)

    @property
    def subscribers(self) -> List[Any]:
        """Attached subscribers (subscription order, read-only copy)."""
        return list(self._subscribers)

    # -- publishing -----------------------------------------------------

    def emit(
        self,
        layer: int,
        name: str,
        step: int,
        node: int = -1,
        dur: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Publish one event: buffered like everything else until flush.

        An instant is counted, a span (``dur``) is observed, a numeric
        ``attrs["value"]`` is a gauge sample; the event tuple itself is
        staged only for an audience that keeps events.
        """
        self.events_emitted += 1
        key = (layer, name)
        if dur is None:
            counts = self._counts
            counts[key] = counts.get(key, 0) + 1
        else:
            span = (layer, name, dur)
            obs = self._observations
            obs[span] = obs.get(span, 0) + 1
        if attrs is not None:
            value = attrs.get("value")
            if value is not None:
                # sample()'s gauge merge for n = 1, inlined: one call fewer
                # per gauge instant
                gauge = self._gauges.get(key)
                if gauge is None:
                    self._gauges[key] = [value, value, value, 1]
                else:
                    gauge[0] = value
                    if value > gauge[1]:
                        gauge[1] = value
                    elif value < gauge[2]:
                        gauge[2] = value
                    gauge[3] += 1
        if self.want_events:
            n = self._ring_n
            self._ring[n] = (step, layer, name, node, dur, attrs)
            self._ring_n = n + 1
            if n + 1 == len(self._ring):
                self._flush_ring()

    def event(self, slot: int, *values: Any) -> None:
        """Stage the event of the tallied instant ``slot`` at the cursor.

        This only stages; it counts nothing and does not test the
        audience.  A publisher of a tallied instant must do both halves:

            tel.tally[slot] += 1          # always: the count
            if tel.want_events:
                tel.event(slot, *values)  # only for an event-keeping audience

        ``values`` are named by the slot's ``TALLIED`` row and the tuple is
        staged at (:attr:`step`, :attr:`node`).
        """
        layer, name = _KEYS[slot]
        attrs = {
            k: v if isinstance(v, _PLAIN) else str(v)
            for k, v in zip(_NAMES[slot], values, strict=True)
        }
        n = self._ring_n
        self._ring[n] = (self.step, layer, name, self.node, None, attrs or None)
        self._ring_n = n + 1
        if n + 1 == len(self._ring):
            self._flush_ring()

    def count(self, layer: int, name: str, n: int = 1) -> None:
        """Coalesce ``n`` occurrences of ``l{layer}.{name}`` until flush."""
        key = (layer, name)
        counts = self._counts
        counts[key] = counts.get(key, 0) + n

    def sample(self, layer: int, name: str, value: Any, n: int) -> None:
        """Publish ``n`` instants of ``l{layer}.{name}``, each a gauge sample
        of ``value``: what ``n`` ``emit(..., attrs={"value": value})`` calls
        hand an aggregator.  It stages no event tuple, so it is for an
        audience that keeps none, or for samples whose events were staged
        already."""
        self.events_emitted += n
        key = (layer, name)
        counts = self._counts
        counts[key] = counts[key] + n if key in counts else n
        gauge = self._gauges.get(key)
        if gauge is None:
            self._gauges[key] = [value, value, value, n]
        else:
            gauge[0] = value
            if value > gauge[1]:
                gauge[1] = value
            elif value < gauge[2]:
                gauge[2] = value
            gauge[3] += n

    def observe(self, layer: int, name: str, value: int, n: int = 1) -> None:
        """Coalesce ``n`` histogram observations of ``value`` until flush.

        The matching counter ``l{layer}.{name}`` is bumped implicitly by
        the aggregating subscriber, exactly as for a span ``emit``.
        """
        key = (layer, name, value)
        obs = self._observations
        obs[key] = obs.get(key, 0) + n

    def record(
        self,
        step: int,
        layer: int,
        name: str,
        node: int = -1,
        dur: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Stage one event tuple in the ring.

        The event half of a ``count`` + ``record`` pair: only meaningful
        when :attr:`want_events` — publishers guard the call (and the
        ``attrs`` construction) behind that flag.
        """
        self.events_emitted += 1
        n = self._ring_n
        self._ring[n] = (step, layer, name, node, dur, attrs)
        self._ring_n = n + 1
        if n + 1 == len(self._ring):
            self._flush_ring()

    def _flush_ring(self) -> None:
        """Materialise ring tuples into events for the audience that keeps them."""
        n = self._ring_n
        self._ring_n = 0
        handlers = self._event_handlers
        ring = self._ring
        for i in range(n):
            ev = TelemetryEvent(*ring[i])
            for handler in handlers:
                handler(ev)

    def flush(self) -> None:
        """Hand everything published since the last flush to the subscribers.

        The only place a subscriber is called: the ring goes to those that
        keep events, the counter / observation / gauge deltas to the
        aggregators.  The machine calls this at every step boundary and at
        the end of a run; direct users of the bus call it before reading a
        subscriber.
        """
        if self._ring_n:
            self._flush_ring()
        if self.tally != _IDLE:
            self._fold_tally()
        counts = self._counts
        if counts:
            for fn in self._counter_subs:
                fn(counts)
            counts.clear()
        obs = self._observations
        if obs:
            for fn in self._observation_subs:
                fn(obs)
            obs.clear()
        gauges = self._gauges
        if gauges:
            for fn in self._gauge_subs:
                fn(gauges)
            gauges.clear()

    def _fold_tally(self) -> None:
        """Move the bumped tally slots into the counter deltas and
        ``events_emitted``, and zero them.

        A slot of :data:`~repro.telemetry.events.TALLIED_GAUGES` goes in as
        that many gauge samples of its fixed value, the flush's last.
        """
        tally = self.tally
        for slot, (layer, name), value in _GAUGED:
            n = tally[slot]
            if n:
                tally[slot] = 0
                self.sample(layer, name, value, n)
        counts = self._counts
        for slot, n in enumerate(tally):
            if n:
                tally[slot] = 0
                self.events_emitted += n
                key = _KEYS[slot]
                counts[key] = counts[key] + n if key in counts else n

    # -- snapshot / restore (repro.state protocol) ---------------------

    #: snapshot-schema version of the telemetry layer state
    STATE_VERSION = 2

    def snapshot(self) -> "LayerState":
        """Capture the bus's step-boundary state.

        The machine flushes the bus at every step boundary, so the ring,
        the tally and the coalesced delta maps are empty whenever a
        checkpoint is taken — only the total event count carries across.
        Subscribers are assembly, not state: a resumed run re-attaches its
        own.
        """
        from ..state import LayerState

        return LayerState(
            "telemetry",
            self.STATE_VERSION,
            {"events_emitted": self.events_emitted},
        )

    def restore(self, state: "LayerState") -> None:
        """Install a :meth:`snapshot`-captured state into this bus."""
        data = state.require("telemetry", self.STATE_VERSION)
        self.events_emitted = data["events_emitted"]
        self.tally[:] = _IDLE
        self._counts.clear()
        self._observations.clear()
        self._gauges.clear()
        self._ring_n = 0
