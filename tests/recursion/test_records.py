"""Tests for call records and invocation bookkeeping."""

from repro.mapping import Ticket
from repro.recursion import CallRecord, Invocation


def t(seq, node=0):
    return Ticket(node, seq)


class TestChoiceCallRecord:
    def test_outstanding(self):
        rec = CallRecord([t(0), t(1)], lambda r: False)
        assert rec.outstanding() == [t(0), t(1)]
        rec.deliver(t(0), 1)
        rec.deliver(t(1), 2)
        assert rec.outstanding() == []

    def test_duplicate_delivery_ignored(self):
        rec = CallRecord([t(0), t(1)], lambda r: True)
        rec.deliver(t(0), "first")
        assert not rec.deliver(t(0), "second")
        assert rec.value == "first"

    def test_resolves_on_first_valid(self):
        rec = CallRecord([t(0), t(1)], lambda r: r == "good")
        assert not rec.deliver(t(0), "bad")
        assert rec.deliver(t(1), "good")
        assert rec.value == "good"

    def test_all_invalid_resolves_to_none(self):
        rec = CallRecord([t(0), t(1)], lambda r: False)
        assert not rec.deliver(t(0), "a")
        assert rec.deliver(t(1), "b")
        assert rec.resolved
        assert rec.value is None

    def test_first_valid_wins_even_if_more_arrive(self):
        rec = CallRecord([t(0), t(1), t(2)], lambda r: r is not None)
        rec.deliver(t(1), "winner")
        rec.deliver(t(0), "late")
        assert rec.value == "winner"

    def test_outstanding_after_partial(self):
        rec = CallRecord([t(0), t(1), t(2)], lambda r: False)
        rec.deliver(t(1), "x")
        assert rec.outstanding() == [t(0), t(2)]


class TestInvocation:
    """A plain call is its bare ticket in the batch and its value an entry
    of ``results``; a choice group is its record, which holds its value."""

    def make(self):
        def gen():
            yield None

        return Invocation(0, gen(), None)

    def test_batch_resolved_when_empty(self):
        inv = self.make()
        assert inv.batch_resolved()

    def test_batch_resolved_tracks_records(self):
        inv = self.make()
        rec = CallRecord([t(1), t(2)], lambda r: r == "good")
        inv.issue(t(0))
        inv.issue(rec)
        assert inv.unresolved == 2
        assert not inv.batch_resolved()
        inv.resolve(t(0), 1)
        assert not inv.batch_resolved()
        assert rec.deliver(t(2), "good")
        inv.unresolved -= 1  # a resolved choice keeps its value on the record
        assert inv.batch_resolved()

    def test_results_made_by_the_first_value(self):
        inv = self.make()
        inv.issue(t(0))
        assert inv.results is None
        inv.resolve(t(0), "v")
        assert inv.results == {t(0): "v"}

    def test_sync_value_single(self):
        inv = self.make()
        inv.issue(t(0))
        inv.resolve(t(0), "only")
        assert inv.sync_value() == "only"

    def test_sync_value_multiple_is_tuple(self):
        inv = self.make()
        for i in range(3):
            inv.issue(t(i))
        # replies arrive in any order; the tuple is in issue order
        for i, val in ((2, "c"), (0, "a"), (1, "b")):
            inv.resolve(t(i), val)
        assert inv.sync_value() == ("a", "b", "c")

    def test_sync_value_mixes_calls_and_choices(self):
        inv = self.make()
        rec = CallRecord([t(1), t(2)], lambda r: False)
        inv.issue(t(0))
        inv.issue(rec)
        inv.resolve(t(0), "plain")
        rec.deliver(t(1), "x")
        assert rec.deliver(t(2), "y")
        inv.unresolved -= 1
        assert inv.results == {t(0): "plain"}
        assert inv.sync_value() == ("plain", None)

    def test_sync_value_empty_batch(self):
        assert self.make().sync_value() == ()

    def test_end_batch_starts_empty(self):
        inv = self.make()
        inv.issue(t(0))
        inv.resolve(t(0), 1)
        inv.end_batch()
        assert inv.batch == [] and inv.results is None
        assert inv.sync_value() == ()

    def test_outstanding_tickets_across_batch(self):
        inv = self.make()
        inv.issue(CallRecord([t(0), t(1)], lambda r: True))
        inv.issue(t(2))
        inv.issue(t(3))
        assert inv.outstanding_tickets() == [t(0), t(1), t(2), t(3)]
        inv.resolve(t(2), "done")
        assert inv.outstanding_tickets() == [t(0), t(1), t(3)]

    def test_flags_default_false(self):
        inv = self.make()
        assert not inv.waiting_sync
        assert not inv.done
        assert not inv.cancelled
