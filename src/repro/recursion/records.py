"""Call records and invocation bookkeeping (paper Figure 3).

"Layer 4 maintains a record of invoked calls (call records). [...] The
ticket number issued by layer 3 is stored in call records, alongside an
empty slot for a pending computation result."

A :class:`CallRecord` covers a whole non-deterministic choice group (the
paper stores "all tickets in the same call record" for choices).  A plain
call keeps no record: the engine keeps it as its bare ticket, whose result
slot is the invocation's ``results`` entry.  An :class:`Invocation` is one
suspended/running activation of the user's recursive function on this
node.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Union

from ..mapping import ReplyHandle, Ticket

__all__ = ["CallRecord", "Invocation"]


class CallRecord:
    """Result slots for one choice group: its tickets and its predicate."""

    __slots__ = ("tickets", "is_valid", "results", "resolved", "value")

    def __init__(
        self, tickets: List[Ticket], is_valid: Callable[[Any], bool]
    ) -> None:
        self.tickets = tickets
        #: the choice predicate: the first evaluation it accepts wins
        self.is_valid = is_valid
        self.results: Dict[Ticket, Any] = {}
        self.resolved = False
        self.value: Any = None

    def deliver(self, ticket: Ticket, payload: Any) -> bool:
        """Record one evaluation; return True if this resolved the record.

        The record resolves on the first valid evaluation, or — with
        ``None`` as value — once every evaluation has arrived invalid.
        """
        self.results[ticket] = payload
        if self.resolved:
            return False
        if self.is_valid(payload):
            self.resolved = True
            self.value = payload
            return True
        if len(self.results) == len(self.tickets):
            self.resolved = True
            self.value = None
            return True
        return False

    def outstanding(self) -> List[Ticket]:
        """Tickets whose evaluations have not arrived yet."""
        return [t for t in self.tickets if t not in self.results]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"={self.value!r}" if self.resolved else f" {len(self.results)}/{len(self.tickets)}"
        return f"CallRecord({self.tickets}{state})"


class Invocation:
    """One activation of the recursive function hosted on a node."""

    __slots__ = (
        "inv_id",
        "gen",
        "reply",
        "batch",
        "unresolved",
        "results",
        "waiting_sync",
        "done",
        "cancelled",
        "start_step",
        "args",
        "sent_log",
    )

    def __init__(
        self,
        inv_id: int,
        gen: Generator[Any, Any, Any],
        reply: Optional[ReplyHandle],
        start_step: int = -1,
        args: Any = None,
    ) -> None:
        self.inv_id = inv_id
        self.gen = gen
        #: where the final result goes (None = external/root invocation)
        self.reply = reply
        #: calls made since the last sync, in issue order: a plain call's
        #: ticket, or a choice group's record
        self.batch: List[Union[Ticket, CallRecord]] = []
        #: entries of ``batch`` that have no value yet
        self.unresolved = 0
        #: plain call's ticket -> its value, for the calls answered so far;
        #: made by the batch's first such value (a choice group's record
        #: holds its own)
        self.results: Optional[Dict[Ticket, Any]] = None
        self.waiting_sync = False
        self.done = False
        self.cancelled = False
        #: simulation step the invocation started on (-1 = unknown); the
        #: telemetry layer turns (start_step, finish step) into a span
        self.start_step = start_step
        #: the payload the generator was invoked with, kept so a checkpoint
        #: can re-create ``gen`` (generators cannot be serialized)
        self.args = args
        #: every value sent into ``gen`` so far, in order; replaying the
        #: log against a fresh generator reproduces its suspension point
        #: exactly (the engine and the generator are both deterministic)
        self.sent_log: List[Any] = []

    def issue(self, entry: Union[Ticket, CallRecord]) -> None:
        """Append a plain call's ticket or a choice group's record to the
        batch, unresolved."""
        self.batch.append(entry)
        self.unresolved += 1

    def resolve(self, ticket: Ticket, value: Any) -> None:
        """Give an unanswered plain call its value."""
        results = self.results
        if results is None:
            self.results = results = {}
        results[ticket] = value
        self.unresolved -= 1

    def batch_resolved(self) -> bool:
        """True if every entry of the current batch has a value."""
        return not self.unresolved

    def sync_value(self) -> Any:
        """Value a pending :class:`~repro.recursion.ops.Sync` resumes with.

        One call → its value; several → a tuple in issue order (matching
        the paper's ``result1, result2 <- yield Sync()``); an empty batch
        (sync with no preceding calls) → an empty tuple.
        """
        results = self.results
        values = tuple([
            entry.value if entry.__class__ is CallRecord else results[entry]
            for entry in self.batch
        ])
        return values[0] if len(values) == 1 else values

    def end_batch(self) -> None:
        """Start a new batch (after a sync has taken its value)."""
        self.batch = []
        self.results = None

    def outstanding_tickets(self) -> List[Ticket]:
        """All unresolved tickets across the current batch."""
        out: List[Ticket] = []
        results = self.results or ()
        for entry in self.batch:
            if entry.__class__ is CallRecord:
                out.extend(entry.outstanding())
            elif entry not in results:
                out.append(entry)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f
            for f, on in (
                ("W", self.waiting_sync),
                ("D", self.done),
                ("C", self.cancelled),
            )
            if on
        )
        return f"Invocation(#{self.inv_id}{' ' + flags if flags else ''})"
