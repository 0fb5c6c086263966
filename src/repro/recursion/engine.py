"""Layer 4: the recursion-to-message-passing conversion engine (paper §IV-C).

:class:`RecursionEngine` is a layer-3 :class:`~repro.mapping.MappedApp`
hosting a user *generator function*.  It intercepts recursive subcalls and
converts them to layer-3 messages behind the scenes:

1. incoming work instantiates the generator and drives it;
2. a yielded :class:`~repro.recursion.ops.Call` is shipped to a
   mapper-chosen node and its ticket parked in a call record;
3. a yielded :class:`~repro.recursion.ops.Sync` suspends the generator (the
   continuation) until all parked tickets have results;
4. a yielded :class:`~repro.recursion.ops.Result` (or a plain ``return``)
   replies to the parent node, quoting the original ticket.

Choice groups (``yield [is_valid, Call(a), Call(b)]``) resume on the first
valid evaluation.  With ``cancellation=True`` (extension; the paper merely
*ignores* losing evaluations) the engine actively propagates
:class:`~repro.mapping.CancelMsg` down abandoned speculative subtrees,
cascading through their own outstanding subcalls.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple
)

from ..declared import Counters
from ..errors import ProtocolError, RecursionLayerError
from ..mapping import MappingContext, ReplyHandle, Ticket
from ..telemetry.events import SLOT
from .ops import Call, Choice, Result, Sync, coerce_op
from .records import CallRecord, Invocation

# the tally slots of the layer-4 instants
_CALL = SLOT[4, "call"]
_SYNC = SLOT[4, "sync"]
_CHOICE = SLOT[4, "choice"]
_WIN = SLOT[4, "choice_win"]
_EXHAUSTED = SLOT[4, "choice_exhausted"]
_RESULT = SLOT[4, "result"]
_CANCELLED = SLOT[4, "cancelled"]
_LATE = SLOT[4, "late_reply"]
_DUP = SLOT[4, "dup_work"]

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..telemetry import TelemetryBus

__all__ = ["RecursionEngine", "RecursiveFunction", "EngineStats"]

#: A layer-5 application: a generator function of one argument.
RecursiveFunction = Callable[[Any], Generator[Any, Any, Any]]


class EngineStats(Counters):
    """Per-node layer-4 counters (aggregated by the stack for profiling)."""

    __slots__ = STATE = (
        "invocations",
        "completions",
        "calls_made",
        "syncs",
        "choice_groups",
        "choice_wins",
        "choice_exhausted",
        "cancels_sent",
        "cancels_received",
        "late_replies",
        # duplicate deliveries of one work item, suppressed (layer-1
        # duplication faults reaching layer 4 unprotected)
        "dup_work",
    )

    @classmethod
    def summed(cls, parts: Iterable["EngineStats"]) -> "EngineStats":
        """A new instance holding the field-wise sum of ``parts`` (the
        per-node merge at the end of a run: one read per part)."""
        total = cls()
        columns = zip(*map(_read_stats, parts))
        for name, value in zip(cls.STATE, map(sum, columns)):
            setattr(total, name, value)
        return total


#: every counter of an EngineStats, in STATE order, read in one call
_read_stats = attrgetter(*EngineStats.STATE)


class _EngineState:
    """Per-node engine state (lives in the layer-3 state slot)."""

    __slots__ = ("invocations", "pending", "by_reply_ticket", "next_inv_id", "stats")

    def __init__(self) -> None:
        #: live invocations by local id
        self.invocations: Dict[int, Invocation] = {}
        #: outstanding subcall tickets -> (invocation, choice group's call
        #: record, or None for a plain call)
        self.pending: Dict[Ticket, Tuple[Invocation, Optional[CallRecord]]] = {}
        #: incoming-work ticket -> invocation (for cancellation lookups)
        self.by_reply_ticket: Dict[Ticket, Invocation] = {}
        self.next_inv_id = 0
        self.stats = EngineStats()


def _batch_records(inv: Invocation) -> List[Dict[str, Any]]:
    """``inv``'s batch as call-record dicts, in issue order."""
    results = inv.results or {}
    # a plain call's value is keyed by the reply's ticket object: equal
    # to the issued one, not always the same object
    keys = {key: key for key in results}
    out = []
    for entry in inv.batch:
        if entry.__class__ is CallRecord:
            out.append({
                "tickets": list(entry.tickets),
                "is_valid": entry.is_valid,
                "results": dict(entry.results),
                "resolved": entry.resolved,
                "value": entry.value,
            })
        else:
            done = entry in results
            value = results[entry] if done else None
            out.append({
                "tickets": [entry],
                "is_valid": None,
                "results": {keys[entry]: value} if done else {},
                "resolved": done,
                "value": value,
            })
    return out


class RecursionEngine:
    """Host ``fn`` (a generator function) as a distributed recursion.

    Parameters
    ----------
    fn:
        The layer-5 application.  Called as ``fn(args)`` for each delegated
        sub-problem; must yield layer-4 ops (see :mod:`repro.recursion.ops`).
    cancellation:
        If True, losing evaluations of a choice group — and, transitively,
        their own outstanding subcalls — are actively cancelled instead of
        merely ignored.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryBus`; when given, the
        engine publishes layer-4 events — an ``invocation`` span per
        completed activation plus ``call`` / ``choice`` / ``sync`` /
        ``result`` / ``choice_win`` / ``choice_exhausted`` / ``cancelled``
        / ``late_reply`` / ``dup_work`` instants.
    """

    def __init__(
        self,
        fn: RecursiveFunction,
        cancellation: bool = False,
        telemetry: Optional["TelemetryBus"] = None,
    ) -> None:
        if not callable(fn):
            raise RecursionLayerError(f"fn must be callable, got {fn!r}")
        self.fn = fn
        self.cancellation = cancellation
        self._telemetry = telemetry

    # -- MappedApp protocol ----------------------------------------------

    def init(self, mctx: MappingContext) -> None:
        mctx.state = _EngineState()

    def on_work(
        self,
        mctx: MappingContext,
        reply: Optional[ReplyHandle],
        payload: Any,
        hint: Optional[float],
    ) -> None:
        st: _EngineState = mctx.state
        if reply is not None and reply.ticket in st.by_reply_ticket:
            # Idempotence under duplicated links: the same work item arrived
            # twice (layer-1 duplication without the reliability layer).
            # Executing it again would double-reply the same ticket; the
            # parent would shrug the second off as a late reply, but the
            # wasted subtree can be large — suppress at the door instead.
            st.stats.dup_work += 1
            tel = self._telemetry
            if tel is not None:
                tel.tally[_DUP] += 1
                if tel.want_events:
                    tel.event(_DUP, reply.ticket)
            return
        gen = self.fn(payload)
        if not hasattr(gen, "send"):
            raise ProtocolError(
                f"{getattr(self.fn, '__name__', self.fn)!r} must be a generator "
                "function (it returned a non-generator)"
            )
        inv = Invocation(st.next_inv_id, gen, reply, start_step=mctx.step, args=payload)
        st.next_inv_id += 1
        st.invocations[inv.inv_id] = inv
        if reply is not None:
            st.by_reply_ticket[reply.ticket] = inv
        st.stats.invocations += 1
        self._advance(mctx, st, inv, first=True)

    def on_reply(self, mctx: MappingContext, ticket: Ticket, payload: Any) -> None:
        st: _EngineState = mctx.state
        tel = self._telemetry
        entry = st.pending.pop(ticket, None)
        if entry is None:
            # evaluation for a retired/cancelled subcall; drop it
            st.stats.late_replies += 1
            if tel is not None:
                tel.tally[_LATE] += 1
                if tel.want_events:
                    tel.event(_LATE, ticket)
            return
        inv, record = entry
        if record is None:
            # a plain call: the reply is its value
            inv.resolve(ticket, payload)
        elif record.deliver(ticket, payload):
            inv.unresolved -= 1
            if record.value is None:
                st.stats.choice_exhausted += 1
                if tel is not None:
                    tel.tally[_EXHAUSTED] += 1
                    if tel.want_events:
                        tel.event(_EXHAUSTED, inv.inv_id)
            else:
                st.stats.choice_wins += 1
                if tel is not None:
                    tel.tally[_WIN] += 1
                    if tel.want_events:
                        tel.event(_WIN, inv.inv_id, ticket)
                # losing evaluations are no longer needed
                for t in record.outstanding():
                    st.pending.pop(t, None)
                    if self.cancellation:
                        mctx.cancel(t)
                        st.stats.cancels_sent += 1
        if inv.done or inv.cancelled:
            return
        if inv.waiting_sync and not inv.unresolved:
            value = inv.sync_value()
            inv.waiting_sync = False
            inv.end_batch()
            self._advance(mctx, st, inv, resume_value=value)

    def on_cancel(self, mctx: MappingContext, ticket: Ticket) -> None:
        st: _EngineState = mctx.state
        inv = st.by_reply_ticket.pop(ticket, None)
        st.stats.cancels_received += 1
        if inv is None or inv.done or inv.cancelled:
            return
        self._cancel_invocation(mctx, st, inv)

    # -- generator driving --------------------------------------------------

    def _advance(
        self,
        mctx: MappingContext,
        st: _EngineState,
        inv: Invocation,
        first: bool = False,
        resume_value: Any = None,
    ) -> None:
        """Drive ``inv``'s generator until it suspends or finishes."""
        tel = self._telemetry
        to_send: Any = None if first else resume_value
        gen = inv.gen
        sent_log = inv.sent_log
        while True:
            try:
                # log before sending: replaying the log against a fresh
                # generator reproduces this exact suspension point after a
                # checkpoint restore (see snapshot_app_state)
                sent_log.append(to_send)
                yielded = gen.send(to_send)
            except StopIteration as stop:
                # `return value` sugar for `yield Result(value)`
                self._finish(mctx, st, inv, stop.value)
                return
            op = yielded
            kind = op.__class__
            if not (kind is Call or kind is Sync or kind is Result or kind is Choice):
                # the list form, or a subclass of an op
                op = coerce_op(op)
                kind = next(k for k in (Call, Choice, Sync, Result) if isinstance(op, k))
            if kind is Call:
                ticket = mctx.call(op.args, op.hint)
                st.pending[ticket] = (inv, None)
                inv.issue(ticket)
                st.stats.calls_made += 1
                if tel is not None:
                    tel.tally[_CALL] += 1
                    if tel.want_events:
                        tel.event(_CALL, inv.inv_id, ticket)
                to_send = ticket
            elif kind is Choice:
                record = CallRecord([], op.is_valid)
                for call in op.calls:
                    ticket = mctx.call(call.args, call.hint)
                    record.tickets.append(ticket)
                    st.pending[ticket] = (inv, record)
                    st.stats.calls_made += 1
                inv.issue(record)
                st.stats.choice_groups += 1
                if tel is not None:
                    tel.tally[_CHOICE] += 1
                    if tel.want_events:
                        tel.event(_CHOICE, inv.inv_id, len(op.calls))
                to_send = tuple(record.tickets)
            elif kind is Sync:
                st.stats.syncs += 1
                if not inv.unresolved:
                    to_send = inv.sync_value()
                    inv.end_batch()
                    continue
                inv.waiting_sync = True
                if tel is not None:
                    tel.tally[_SYNC] += 1
                    if tel.want_events:
                        tel.event(_SYNC, inv.inv_id, len(inv.outstanding_tickets()))
                return
            else:
                self._finish(mctx, st, inv, op.value)
                gen.close()
                return

    def _finish(
        self, mctx: MappingContext, st: _EngineState, inv: Invocation, value: Any
    ) -> None:
        if inv.done or inv.cancelled:
            # idempotent completion: a second Result for an already-finished
            # invocation must not reply (and double-count) again
            return
        inv.done = True
        st.stats.completions += 1
        # retire any still-outstanding speculative subcalls
        if inv.batch:
            for t in inv.outstanding_tickets():
                st.pending.pop(t, None)
                if self.cancellation:
                    mctx.cancel(t)
                    st.stats.cancels_sent += 1
        st.invocations.pop(inv.inv_id, None)
        if inv.reply is not None:
            st.by_reply_ticket.pop(inv.reply.ticket, None)
        tel = self._telemetry
        if tel is not None:
            step = tel.step
            start = inv.start_step if inv.start_step >= 0 else step
            dur = step - start if step > start else 0
            attrs = {"inv": inv.inv_id} if tel.want_events else None
            tel.emit(4, "invocation", start, tel.node, dur, attrs)
            tel.tally[_RESULT] += 1
            if tel.want_events:
                tel.event(_RESULT, inv.inv_id)
        mctx.reply(inv.reply, value)

    def _cancel_invocation(
        self, mctx: MappingContext, st: _EngineState, inv: Invocation
    ) -> None:
        inv.cancelled = True
        for t in inv.outstanding_tickets():
            st.pending.pop(t, None)
            mctx.cancel(t)
            st.stats.cancels_sent += 1
        st.invocations.pop(inv.inv_id, None)
        inv.gen.close()
        tel = self._telemetry
        if tel is not None:
            tel.tally[_CANCELLED] += 1
            if tel.want_events:
                tel.event(_CANCELLED, inv.inv_id)

    # -- snapshot / restore (repro.state protocol) --------------------------

    def snapshot_app_state(self, st: Any) -> Dict[str, Any]:
        """Layer-3 hook: capture one node's engine state, generators included.

        Live generators cannot be serialized, so each invocation is stored
        as its creation arguments plus its *sent log* — every value the
        engine has sent into the generator so far.  Both the engine and the
        hosted function are deterministic, so replaying the log against a
        fresh ``fn(args)`` generator reproduces the exact suspension point
        on restore.  Ticket-indexed maps are stored positionally
        (invocation id + call-record index) and relinked on restore.  Each
        batch entry is written as a call record: a plain call, which keeps
        no record, as the one-ticket record with ``is_valid=None`` it
        stands for.
        """
        if not isinstance(st, _EngineState):
            raise RecursionLayerError("state does not belong to a RecursionEngine")
        from ..errors import CheckpointError

        invs = []
        for inv in st.invocations.values():
            if not inv.waiting_sync:
                raise CheckpointError(
                    f"invocation #{inv.inv_id} is mid-drive (not suspended "
                    "at a Sync); snapshots are only taken at step boundaries"
                )
            invs.append(
                {
                    "inv_id": inv.inv_id,
                    "args": inv.args,
                    "reply": inv.reply,
                    "start_step": inv.start_step,
                    "sent_log": list(inv.sent_log),
                    "batch": _batch_records(inv),
                }
            )
        pending = []
        for ticket, (inv, rec) in st.pending.items():
            try:
                # a record compares by identity, a ticket by value
                idx = inv.batch.index(ticket if rec is None else rec)
            except ValueError as exc:
                raise CheckpointError(
                    f"pending ticket {ticket} references a call record "
                    f"outside invocation #{inv.inv_id}'s current batch"
                ) from exc
            pending.append((ticket, inv.inv_id, idx))
        return {
            "invocations": invs,
            "pending": pending,
            "by_reply_ticket": [
                (ticket, inv.inv_id) for ticket, inv in st.by_reply_ticket.items()
            ],
            "next_inv_id": st.next_inv_id,
            "stats": st.stats,
        }

    def restore_app_state(self, mctx: MappingContext, data: Dict[str, Any]) -> None:
        """Layer-3 hook: rebuild the engine state, replaying each generator.

        Replay drives ``fn(args)`` through the captured sent log, discarding
        the (identical) yields; a generator that finishes early — e.g. a
        non-deterministic hosted function — is a protocol violation reported
        as :class:`~repro.errors.CheckpointError`.
        """
        from ..errors import CheckpointError

        st = _EngineState()
        st.next_inv_id = data["next_inv_id"]
        st.stats = data["stats"]
        for idata in data["invocations"]:
            gen = self.fn(idata["args"])
            inv = Invocation(
                idata["inv_id"],
                gen,
                idata["reply"],
                start_step=idata["start_step"],
                args=idata["args"],
            )
            inv.waiting_sync = True
            inv.sent_log = list(idata["sent_log"])
            try:
                for value in inv.sent_log:
                    gen.send(value)
            except StopIteration as exc:
                raise CheckpointError(
                    f"invocation #{inv.inv_id} finished during replay — the "
                    "hosted function is not deterministic, so this run "
                    "cannot be resumed from a checkpoint"
                ) from exc
            for r in idata["batch"]:
                if r["is_valid"] is None:
                    # a plain call; its value is keyed as the reply's ticket
                    inv.issue(r["tickets"][0])
                    if r["resolved"]:
                        inv.resolve(next(iter(r["results"])), r["value"])
                    continue
                rec = CallRecord(list(r["tickets"]), r["is_valid"])
                rec.results = dict(r["results"])
                rec.resolved = r["resolved"]
                rec.value = r["value"]
                inv.issue(rec)
                if rec.resolved:
                    inv.unresolved -= 1
            st.invocations[inv.inv_id] = inv
        for ticket, inv_id, idx in data["pending"]:
            try:
                inv = st.invocations[inv_id]
                entry = inv.batch[idx]
                st.pending[ticket] = (
                    inv, entry if entry.__class__ is CallRecord else None
                )
            except (KeyError, IndexError) as exc:
                raise CheckpointError(
                    f"pending ticket {ticket} references missing invocation "
                    f"#{inv_id} (record {idx})"
                ) from exc
        for ticket, inv_id in data["by_reply_ticket"]:
            try:
                st.by_reply_ticket[ticket] = st.invocations[inv_id]
            except KeyError as exc:
                raise CheckpointError(
                    f"reply ticket {ticket} references missing invocation #{inv_id}"
                ) from exc
        mctx.state = st

    # -- inspection ---------------------------------------------------------

    @staticmethod
    def stats_of(app_state: Any) -> EngineStats:
        """Engine statistics held in a node's layer-4 state."""
        if not isinstance(app_state, _EngineState):
            raise RecursionLayerError("state does not belong to a RecursionEngine")
        return app_state.stats

    @staticmethod
    def live_invocations_of(app_state: Any) -> int:
        """Number of live (suspended or running) invocations on a node."""
        if not isinstance(app_state, _EngineState):
            raise RecursionLayerError("state does not belong to a RecursionEngine")
        return len(app_state.invocations)

    @staticmethod
    def load_probe(pctx: Any, app_state: Any) -> int:
        """Layer-3 load metric for work sharing: live invocations held here.

        Passed as ``load_fn`` to :class:`~repro.mapping.MappingService` so
        an overloaded node can push incoming work onward (extension; paper
        Figure 2's "work sharing/stealing").  Note that in the
        one-pop-per-step machine this overstates pressure — suspended
        invocations cost nothing — so
        :func:`repro.mapping.queue_depth_load` is usually the better probe.
        """
        if not isinstance(app_state, _EngineState):
            return 0
        return len(app_state.invocations)
