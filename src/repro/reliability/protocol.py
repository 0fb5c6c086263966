"""The reliable-delivery protocol engine (see package docstring).

:class:`ReliableDelivery` is owned by a :class:`~repro.netsim.Machine` and
models every link's NIC state centrally (the machine simulates all nodes
anyway).  It sits *between* the send call and the destination inbox:

* ``send(src, dst, payload)`` stamps the payload with the link's next
  sequence number, parks the frame in the sender-side retransmit buffer,
  arms its timer and transmits it through the machine's
  :class:`~repro.netsim.FaultModel` / latency channel — piggybacking any
  cumulative acknowledgement owed to ``dst`` on the frame itself;
* ``on_step(step)`` — called by the machine at the start of every step —
  lands frames whose flight time has elapsed (releasing in-order payloads
  into inboxes) and fires exactly the retransmit timers due at ``step``;
* ``end_step()`` — called by the machine at the end of every step —
  flushes one standalone cumulative ack per link that received data this
  step and did not get to piggyback it.  Standalone acks leave in the same
  step the data arrived, so ack round-trip timing matches the old
  ack-per-frame scheme exactly; there are just fewer ack frames.

Hot-path structure (the on_clean overhead budget):

* the retransmit scan is a **timer wheel** (``_timers``: due step -> flat
  ``[link, seq, link, seq, ...]`` list).  A step with no due timers costs
  one dict lookup; acked frames leave stale wheel entries that are
  discarded O(1) when their bucket fires (``unacked`` lookup miss) — no
  per-step walk over links, no per-link list allocation.  On clean
  zero-latency links the timer can provably never fire (the ack always
  lands first, since arrivals are processed before timers), so it is not
  armed at all;
* the sender-side retransmit record lives *on* the
  :class:`~repro.reliability.frames.DataFrame` (``due`` / ``retries``
  slots), so a clean-link send allocates one envelope and one frame —
  nothing else;
* in-flight frames are flat ``[src, dst, frame, ...]`` buckets keyed by
  arrival step (no per-frame tuples);
* acknowledgements are cumulative and **coalesced**: at most one ack
  crosses each link per step (piggybacked on reverse data when possible),
  instead of one ack frame per arriving data frame.

Because frames bypass inboxes, the protocol never consumes a node's
one-pop-per-step delivery budget with control traffic, and the program-visible
semantics of a faulty-but-protected machine match the reliable machine
exactly: each payload is enqueued exactly once, in per-link send order.
Timing differs (a dropped frame delays its payload by the retransmit
timeout), so *step counts* are not preserved — *verdicts* are.

All protocol state is deterministic: frame arrival order is append order,
timer buckets fire in arming order, ack flush order is the order links
first received data in the step, and every random draw comes from the
machine's seeded fault model.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..declared import Counters
from ..domains import judge
from ..errors import ReliabilityError
from ..netsim.message import Envelope
from .frames import AckFrame, DataFrame

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..netsim.backend import Machine

__all__ = ["ReliabilityConfig", "ReliableDelivery", "LinkLayerStats"]

#: directed link key
LinkKey = Tuple[int, int]


class ReliabilityConfig:
    """Tunables of the retransmission protocol.

    Parameters
    ----------
    timeout:
        Steps to wait for an acknowledgement before the first
        retransmission.  Must cover a frame's round trip (2 steps on a
        zero-latency link) or every message is retransmitted once for free.
    backoff:
        Exponential backoff factor: retry *n* waits
        ``timeout * backoff**n`` steps (capped at ``max_timeout``).
    max_timeout:
        Upper bound on the per-retry wait.
    retry_limit:
        Maximum retransmissions per frame (None: the default cap, 12).  A
        frame still unacknowledged after the cap is handled per
        ``on_exhausted``.
    on_exhausted:
        ``"raise"`` (default) aborts the run with
        :class:`~repro.errors.ReliabilityError` — the loud option, for
        catching a cap that is too small for the configured loss rate;
        ``"drop"`` gives the message up, recording an end-to-end drop in
        the trace (reason ``retry_exhausted``).
    """

    __slots__ = ("timeout", "backoff", "max_timeout", "retry_limit", "on_exhausted")

    def __init__(
        self,
        timeout: int = 4,
        backoff: float = 2.0,
        max_timeout: int = 64,
        retry_limit: Optional[int] = None,
        on_exhausted: str = "raise",
    ) -> None:
        judge("retry_limit", retry_limit)
        for name, value in (("timeout", timeout), ("max_timeout", max_timeout)):
            # a float step never comes due on the integer clock; True is not a count
            if not isinstance(value, int) or isinstance(value, bool):
                raise ReliabilityError(f"{name} must be an int, got {value!r}")
        if not isinstance(backoff, (int, float)) or isinstance(backoff, bool):
            raise ReliabilityError(f"backoff must be a number, got {backoff!r}")
        if timeout < 1:
            raise ReliabilityError(f"timeout must be >= 1 step, got {timeout}")
        if backoff < 1.0:
            raise ReliabilityError(f"backoff must be >= 1.0, got {backoff}")
        if max_timeout < timeout:
            raise ReliabilityError(
                f"max_timeout ({max_timeout}) must be >= timeout ({timeout})"
            )
        if on_exhausted not in ("raise", "drop"):
            raise ReliabilityError(
                f"on_exhausted must be 'raise' or 'drop', got {on_exhausted!r}"
            )
        self.timeout = timeout
        self.backoff = backoff
        self.max_timeout = max_timeout
        self.retry_limit = 12 if retry_limit is None else retry_limit
        self.on_exhausted = on_exhausted


class LinkLayerStats(Counters):
    """Protocol counters, always maintained while the layer is enabled.

    Telemetry mirrors these as events (``retransmit`` / ``ack`` /
    ``dedup``); the counters make them inspectable without a bus.

    Since acks are cumulative and coalesced (at most one per link per
    step, piggybacked on reverse data when possible), ``acks_sent`` counts
    standalone ack *frames*, ``acks_piggybacked`` counts acks carried on
    data frames, and ``acks_received`` counts cumulative-ack applications
    at the sending endpoint (both kinds, duplicates included).
    """

    __slots__ = STATE = (
        "data_sent",
        "delivered",
        "retransmits",
        "acks_sent",
        "acks_piggybacked",
        "acks_received",
        "dups_suppressed",
        "frames_lost",
        "exhausted",
    )


class _SenderLink:
    """Send half of a directed link: next seq + retransmit buffer.

    ``unacked`` maps seq -> :class:`DataFrame` (the frame *is* the
    retransmit record); insertion order is ascending sequence number,
    which makes cumulative-ack retirement a prefix pop.
    """

    __slots__ = ("src", "dst", "next_seq", "unacked")

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self.next_seq = 0
        self.unacked: Dict[int, DataFrame] = {}


class _ReceiverLink:
    """Receive half of a directed link: in-order cursor + reorder buffer."""

    __slots__ = ("expected", "buffer")

    def __init__(self) -> None:
        self.expected = 0
        self.buffer: Dict[int, "Envelope"] = {}


class ReliableDelivery:
    """Per-machine reliability engine; see the module docstring.

    Built by :class:`~repro.netsim.Machine` when constructed with
    ``reliability=True`` (default config) or a :class:`ReliabilityConfig`.
    Exposed as ``machine.reliability`` for inspection.
    """

    __slots__ = (
        "_machine",
        "config",
        "stats",
        "_senders",
        "_receivers",
        "_frames",
        "_frames_in_flight",
        "_unacked_total",
        "_timers",
        "_ack_owed",
        "_reliable_links",
        "_latency",
        "_skip_timers",
        "_virtual",
        "_retire",
    )

    def __init__(self, machine: "Machine", config: Optional[ReliabilityConfig] = None):
        self._machine = machine
        self.config = config if config is not None else ReliabilityConfig()
        self.stats = LinkLayerStats()
        self._senders: Dict[LinkKey, _SenderLink] = {}
        self._receivers: Dict[LinkKey, _ReceiverLink] = {}
        #: frames in flight: arrival step -> flat [src, dst, frame, ...]
        self._frames: Dict[int, List[Any]] = {}
        self._frames_in_flight = 0
        self._unacked_total = 0
        #: timer wheel: due step -> flat [link, seq, link, seq, ...];
        #: entries whose frame was acked or rescheduled are skipped when
        #: the bucket fires (the frame's ``due`` is authoritative)
        self._timers: Dict[int, List[Any]] = {}
        #: links owed a cumulative ack this step: (receiver, sender) ->
        #: _ReceiverLink (framed mode) or arrival count (virtual mode);
        #: drained by piggybacking or ``end_step``
        self._ack_owed: Dict[LinkKey, Any] = {}
        # Cached channel properties (fixed for the machine's lifetime):
        # clean links skip the fault-model draw per frame entirely.
        self._reliable_links = machine._faults.is_reliable
        self._latency = machine._latency
        # On a clean zero-latency link the ack for a frame sent at step t
        # arrives at t+2, and arrivals are processed before timers, so the
        # earliest timer (due t+2 at timeout=1) is always stale when its
        # bucket fires.  The timer can provably never fire — skip arming
        # it.  (With latency the round trip can exceed the timeout and
        # spurious retransmits are real behaviour, so timers stay on.)
        self._skip_timers = self._reliable_links and self._latency == 0
        # On a clean zero-latency link with no telemetry bus the whole
        # frame lifecycle is deterministic, so it is *virtualized*: the
        # envelope itself travels the flight bucket (no DataFrame), acks
        # reduce to per-link arrival counters in ``_ack_owed`` (int, not
        # _ReceiverLink), and retirement becomes a scheduled counter
        # decrement in ``_retire`` ({step: [frames, acks]}).  Every stat
        # and the ``pending`` zero/non-zero sequence are identical to the
        # framed protocol; only ``link_state`` loses its mid-run per-link
        # breakdown (it reports from the frame-level dicts, which the
        # virtual path never populates).
        self._virtual = self._skip_timers and machine._telemetry is None
        self._retire: Dict[int, List[int]] = {}

    # -- machine-facing surface -----------------------------------------

    @property
    def pending(self) -> int:
        """Outstanding protocol work: unacked frames + frames in flight.

        The machine keeps stepping while this is non-zero, so a run only
        goes quiescent once every payload is delivered *and* acknowledged.
        (``end_step`` leaves no deferred acks behind: every owed ack is in
        flight by the time the machine checks quiescence.)
        """
        return self._unacked_total + self._frames_in_flight

    def next_event_step(self) -> float:
        """Earliest step ``on_step`` has work at: a frame landing, a timer
        bucket (a stale one fires as a no-op, as when stepped through) or a
        virtual retirement; ``inf`` when nothing is scheduled."""
        return min(
            min(self._frames, default=inf),
            min(self._timers, default=inf),
            min(self._retire, default=inf),
        )

    def release(self) -> None:
        """Let go of the machine (its ``close`` calls this): the engine's
        stats and link state stay readable, it cannot carry frames again."""
        self._machine = None

    def send(self, src: int, dst: int, payload: Any) -> None:
        """Accept one logical send from the machine's send path."""
        m = self._machine
        step = m.current_step
        if self._virtual:
            # virtual clean path (see __init__): the envelope IS the frame
            env = Envelope(src, dst, payload, step, m._next_msg_id)
            m._next_msg_id += 1
            stats = self.stats
            stats.data_sent += 1
            self._unacked_total += 1
            owed = self._ack_owed
            if owed:
                n = owed.pop((src, dst), None)
                if n is not None:
                    # piggyback: the ack we owe dst rides this frame and
                    # lands (retiring dst's n frames) next step — the same
                    # step a standalone end-of-step ack would land
                    stats.acks_piggybacked += 1
                    retire = self._retire
                    b = retire.get(step + 1)
                    if b is None:
                        b = retire[step + 1] = [0, 0]
                    b[0] += n
                    b[1] += 1
            frames = self._frames
            key = step + 1
            fbucket = frames.get(key)
            if fbucket is None:
                fbucket = frames[key] = []
            fbucket.append(src)
            fbucket.append(dst)
            fbucket.append(env)
            self._frames_in_flight += 1
            return
        link = self._senders.get((src, dst))
        if link is None:
            link = self._senders[(src, dst)] = _SenderLink(src, dst)
        seq = link.next_seq
        link.next_seq = seq + 1
        env = Envelope(src, dst, payload, step, m._next_msg_id)
        m._next_msg_id += 1
        frame = DataFrame(seq, env)
        owed = self._ack_owed
        if owed:
            rl = owed.pop((src, dst), None)
            if rl is not None:
                # piggyback the cumulative ack we owe dst on this frame
                cum = rl.expected - 1
                frame.ack = cum
                self.stats.acks_piggybacked += 1
                tel = m._telemetry
                if tel is not None:
                    tel.count(1, "ack")
                    if tel.want_events:
                        tel.record(
                            step, 1, "ack", src,
                            None, {"dst": dst, "cum": cum, "piggyback": True},
                        )
        link.unacked[seq] = frame
        self._unacked_total += 1
        self.stats.data_sent += 1
        if self._skip_timers:
            # Clean zero-latency link: no timer to arm (see __init__) and
            # the channel is trivial — one copy, one-step flight.  Inline
            # the transmit to keep the per-message cost at two dict ops
            # and three list appends.
            frames = self._frames
            key = step + 1
            fbucket = frames.get(key)
            if fbucket is None:
                fbucket = frames[key] = []
            fbucket.append(src)
            fbucket.append(dst)
            fbucket.append(frame)
            self._frames_in_flight += 1
            return
        due = step + 1 + self.config.timeout
        frame.due = due
        timers = self._timers
        bucket = timers.get(due)
        if bucket is None:
            bucket = timers[due] = []
        bucket.append(link)
        bucket.append(seq)
        self._transmit(src, dst, frame)

    def on_step(self, step: int) -> None:
        """Land matured frames, then fire the retransmit timers due now.

        Called by the machine at the start of every step, before the
        delivery snapshot — payloads released here are deliverable within
        the same step, matching the latency of an unprotected send.
        """
        if self._virtual:
            if self._frames_in_flight:
                arrivals = self._frames.pop(step, None)
                if arrivals is not None:
                    n = len(arrivals) // 3
                    self._frames_in_flight -= n
                    self.stats.delivered += n
                    owed = self._ack_owed
                    owed_get = owed.get
                    enqueue = self._machine._enqueue
                    it = iter(arrivals)
                    for src, dst, env in zip(it, it, it):
                        enqueue(dst, env)
                        k = (dst, src)
                        owed[k] = owed_get(k, 0) + 1
            if self._retire:
                b = self._retire.pop(step, None)
                if b is not None:
                    self._unacked_total -= b[0]
                    self.stats.acks_received += b[1]
            return
        if self._frames_in_flight:
            arrivals = self._frames.pop(step, None)
            if arrivals is not None:
                self._frames_in_flight -= len(arrivals) // 3
                it = iter(arrivals)
                for src, dst, frame in zip(it, it, it):
                    if type(frame) is DataFrame:
                        self._on_data(src, dst, frame, step)
                    else:
                        self._on_ack(src, dst, frame, step)
        if self._timers:
            bucket = self._timers.pop(step, None)
            if bucket is not None:
                self._fire_timers(bucket, step)

    def end_step(self) -> None:
        """Flush deferred acknowledgements at the step boundary.

        One cumulative :class:`AckFrame` per link that received data this
        step and did not piggyback its ack on reverse traffic.  The ack
        leaves in the same step the data arrived (arrival next step), so
        round-trip timing is identical to acking each frame on arrival.
        """
        owed = self._ack_owed
        if not owed:
            return
        if self._virtual:
            # one standalone cumulative ack per owed link, as counters:
            # each retires that link's arrivals from this step, next step
            stats = self.stats
            stats.acks_sent += len(owed)
            retire = self._retire
            key = self._machine.current_step + 1
            b = retire.get(key)
            if b is None:
                b = retire[key] = [0, 0]
            nf = 0
            for n in owed.values():
                nf += n
            b[0] += nf
            b[1] += len(owed)
            owed.clear()
            return
        m = self._machine
        step = m.current_step
        tel = m._telemetry
        stats = self.stats
        if self._skip_timers:
            # clean zero-latency links: all acks land next step — share
            # one flight bucket and skip the per-frame channel call
            frames = self._frames
            key = step + 1
            fbucket = frames.get(key)
            if fbucket is None:
                fbucket = frames[key] = []
            for (src, dst), rl in owed.items():
                cum = rl.expected - 1
                stats.acks_sent += 1
                if tel is not None:
                    tel.count(1, "ack")
                    if tel.want_events:
                        tel.record(step, 1, "ack", src, None, {"dst": dst, "cum": cum})
                fbucket.append(src)
                fbucket.append(dst)
                fbucket.append(AckFrame(cum))
            self._frames_in_flight += len(owed)
            owed.clear()
            return
        for (src, dst), rl in owed.items():
            cum = rl.expected - 1
            stats.acks_sent += 1
            if tel is not None:
                tel.count(1, "ack")
                if tel.want_events:
                    tel.record(step, 1, "ack", src, None, {"dst": dst, "cum": cum})
            self._transmit(src, dst, AckFrame(cum))
        owed.clear()

    # -- channel ---------------------------------------------------------

    def _transmit(self, src: int, dst: int, frame: Any) -> None:
        """Push one frame through the lossy/latent channel."""
        m = self._machine
        if self._reliable_links:
            copies = 1
        else:
            copies = m._faults.copies_to_deliver()
            if copies == 0:
                self.stats.frames_lost += 1
                tel = m._telemetry
                if tel is not None:
                    tel.emit(1, "drop", m.current_step, dst, attrs={"reason": "link"})
                return
        delay = self._latency
        if delay and (src < 0 or dst < 0):
            # external endpoints (src/dst -1) have no physical link to model
            delay = 0
        frames = self._frames
        key = m.current_step + 1 + delay
        bucket = frames.get(key)
        if bucket is None:
            bucket = frames[key] = []
        bucket.append(src)
        bucket.append(dst)
        bucket.append(frame)
        if copies > 1:
            for _ in range(copies - 1):
                bucket.append(src)
                bucket.append(dst)
                bucket.append(frame)
        self._frames_in_flight += copies

    # -- receive side -----------------------------------------------------

    def _on_data(self, src: int, dst: int, frame: DataFrame, step: int) -> None:
        cum = frame.ack
        if cum >= 0:
            # piggybacked ack for the reverse direction: data we (dst)
            # sent to src earlier is being acknowledged
            self._apply_cum_ack(dst, src, cum, step)
        rl = self._receivers.get((src, dst))
        if rl is None:
            rl = self._receivers[(src, dst)] = _ReceiverLink()
        seq = frame.seq
        expected = rl.expected
        stats = self.stats
        if seq == expected:
            stats.delivered += 1
            enqueue = self._machine._enqueue
            enqueue(dst, frame.env)
            expected += 1
            buffer = rl.buffer
            if buffer:
                # a gap just closed: drain buffered successors in order
                while expected in buffer:
                    stats.delivered += 1
                    enqueue(dst, buffer.pop(expected))
                    expected += 1
            rl.expected = expected
        elif seq > expected:
            if seq in rl.buffer:
                self._suppress(src, dst, seq, step)
            else:
                rl.buffer[seq] = frame.env
        else:
            self._suppress(src, dst, seq, step)
        # Defer the cumulative ack to the step boundary (or to a
        # reverse-direction data frame sent this step, which piggybacks
        # it).  Duplicates re-arm the owed entry, so a lost ack is still
        # repaired by the retransmission it provokes.
        self._ack_owed[(dst, src)] = rl

    def _suppress(self, src: int, dst: int, seq: int, step: int) -> None:
        self.stats.dups_suppressed += 1
        tel = self._machine._telemetry
        if tel is not None:
            tel.count(1, "dedup")
            if tel.want_events:
                tel.record(step, 1, "dedup", dst, None, {"src": src, "seq": seq})

    # -- send side ---------------------------------------------------------

    def _on_ack(self, src: int, dst: int, frame: AckFrame, step: int) -> None:
        # the ack travelled receiver -> sender, so the sender link is (dst, src)
        self._apply_cum_ack(dst, src, frame.cum, step)

    def _apply_cum_ack(self, src: int, dst: int, cum: int, step: int) -> None:
        """Retire every frame with seq <= ``cum`` on sender link src->dst."""
        self.stats.acks_received += 1
        link = self._senders.get((src, dst))
        if link is None:  # pragma: no cover - defensive; acks imply a sender
            return
        unacked = link.unacked
        if not unacked:
            return
        tel = self._machine._telemetry
        if next(reversed(unacked)) <= cum:
            # the cumulative ack covers the whole buffer (the common case
            # on a clean link): retire it wholesale
            n = len(unacked)
            if tel is None:
                unacked.clear()
                self._unacked_total -= n
                return
            if self._skip_timers and not tel.want_events:
                # clean links never retransmit, so every retry count is 0:
                # one coalesced observation replaces n identical ones
                unacked.clear()
                self._unacked_total -= n
                tel.observe(1, "link_retries", 0, n)
                return
        retired = 0
        while unacked:
            seq = next(iter(unacked))
            if seq > cum:
                break
            frame_ = unacked.pop(seq)
            retired += 1
            if tel is not None:
                # span observation: value = retransmissions this frame
                # needed, so the metrics dump grows a retry-count
                # histogram (l1.link_retries.steps)
                tel.observe(1, "link_retries", frame_.retries)
                if tel.want_events:
                    tel.record(
                        step, 1, "link_retries", src,
                        frame_.retries, {"dst": dst, "seq": seq},
                    )
        if retired:
            self._unacked_total -= retired

    def _fire_timers(self, bucket: List[Any], step: int) -> None:
        """Handle one timer-wheel bucket: retransmit or give up."""
        cfg = self.config
        stats = self.stats
        m = self._machine
        timers = self._timers
        for i in range(0, len(bucket), 2):
            link: _SenderLink = bucket[i]
            seq: int = bucket[i + 1]
            frame = link.unacked.get(seq)
            if frame is None or frame.due != step:
                # already acked, or rescheduled by an earlier backoff
                continue
            tel = m._telemetry
            if frame.retries >= cfg.retry_limit:
                stats.exhausted += 1
                src, dst = link.src, link.dst
                if cfg.on_exhausted == "raise":
                    raise ReliabilityError(
                        f"link {src}->{dst} gave up on seq {seq} after "
                        f"{frame.retries} retransmissions (retry_limit="
                        f"{cfg.retry_limit}); raise the cap or lower the "
                        f"fault rate"
                    )
                del link.unacked[seq]
                self._unacked_total -= 1
                m._record_drop(dst, "retry_exhausted")
                if tel is not None:
                    tel.observe(1, "link_retries", frame.retries)
                    if tel.want_events:
                        tel.record(
                            step, 1, "link_retries", src, frame.retries,
                            {"dst": dst, "seq": seq, "gave_up": True},
                        )
                continue
            retries = frame.retries + 1
            frame.retries = retries
            stats.retransmits += 1
            wait = cfg.timeout * (cfg.backoff ** retries)
            due = step + max(1, min(int(wait), cfg.max_timeout))
            frame.due = due
            nbucket = timers.get(due)
            if nbucket is None:
                nbucket = timers[due] = []
            nbucket.append(link)
            nbucket.append(seq)
            if tel is not None:
                tel.count(1, "retransmit")
                if tel.want_events:
                    tel.record(
                        step, 1, "retransmit", link.src,
                        None, {"dst": link.dst, "seq": seq, "retry": retries},
                    )
            self._transmit(link.src, link.dst, frame)

    # -- snapshot / restore (repro.state protocol) -------------------------

    #: snapshot-schema version of the reliability layer state
    STATE_VERSION = 1

    def snapshot(self) -> "LayerState":
        """Capture the protocol's mutable state as a ``LayerState``.

        The dict holds the live objects; the checkpoint's one pickle keeps
        their aliasing intact — ``_ack_owed`` values are the *same*
        :class:`_ReceiverLink` objects held by ``_receivers``, timer-wheel
        buckets hold the same :class:`_SenderLink` objects as ``_senders``,
        and an in-flight retransmission is the same :class:`DataFrame` as
        its retransmit-buffer entry.  Channel configuration (fault model,
        latency, virtualization) is derived from the owning machine and is
        recorded only as a ``virtual`` compatibility flag.
        """
        from ..state import LayerState

        data = {
            "virtual": self._virtual,
            "stats": self.stats,
            "senders": self._senders,
            "receivers": self._receivers,
            "frames": self._frames,
            "frames_in_flight": self._frames_in_flight,
            "unacked_total": self._unacked_total,
            "timers": self._timers,
            "ack_owed": self._ack_owed,
            "retire": self._retire,
        }
        return LayerState("reliability", self.STATE_VERSION, data)

    def restore(self, state: "LayerState") -> None:
        """Install a :meth:`snapshot`-captured state into this engine.

        The engine must run in the same mode (framed vs virtualized, which
        follows from the machine's fault/latency/telemetry configuration)
        as the one that took the snapshot.  The state's objects are
        installed as they are, not copied.
        """
        from ..errors import CheckpointError
        from ..state import LayerState  # noqa: F401

        data = state.require("reliability", self.STATE_VERSION)
        if data["virtual"] != self._virtual:
            raise CheckpointError(
                "checkpoint and machine disagree on the reliability mode "
                f"(snapshot virtual={data['virtual']}, this engine "
                f"virtual={self._virtual}); rebuild the stack with the "
                "original fault/latency/telemetry configuration"
            )
        self.stats = data["stats"]
        self._senders = data["senders"]
        self._receivers = data["receivers"]
        self._frames = data["frames"]
        self._frames_in_flight = data["frames_in_flight"]
        self._unacked_total = data["unacked_total"]
        self._timers = data["timers"]
        self._ack_owed = data["ack_owed"]
        self._retire = data["retire"]

    # -- inspection --------------------------------------------------------

    def link_state(self) -> Dict[str, Dict[str, int]]:
        """Debug snapshot: per-link unacked / buffered counts (non-empty only)."""
        out: Dict[str, Dict[str, int]] = {}
        for (src, dst), link in self._senders.items():
            if link.unacked:
                out.setdefault(f"{src}->{dst}", {})["unacked"] = len(link.unacked)
        for (src, dst), rl in self._receivers.items():
            if rl.buffer:
                out.setdefault(f"{src}->{dst}", {})["buffered"] = len(rl.buffer)
        return out
