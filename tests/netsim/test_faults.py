"""Tests for fault injection (drop/duplicate extension)."""

import random

import pytest

from repro.errors import SimulationError
from repro.netsim import FaultModel, FunctionalProgram, Machine, ReliableLinks
from repro.topology import Ring


class TestFaultModel:
    def test_reliable_default(self):
        assert ReliableLinks.is_reliable
        assert ReliableLinks.copies_to_deliver() == 1

    def test_invalid_probability(self):
        with pytest.raises(SimulationError):
            FaultModel(drop_probability=1.5, rng=random.Random(0))
        with pytest.raises(SimulationError):
            FaultModel(duplicate_probability=-0.1, rng=random.Random(0))

    @pytest.mark.parametrize("rate", [True, "0.1", 1.5, -0.1], ids=repr)
    @pytest.mark.parametrize("name", ["drop_probability", "duplicate_probability"])
    def test_rate_must_be_a_number_in_range(self, name, rate):
        # the RunSpec drop/duplicate rules: True dropped every message and
        # "0.1" died with a bare TypeError
        field = name.split("_")[0]  # the RunSpec field's row judges it
        with pytest.raises(SimulationError, match=f"{field} must be a probability"):
            FaultModel(**{name: rate}, rng=random.Random(0))

    @pytest.mark.parametrize("rate", [True, "0.1", 1.5, -0.1], ids=repr)
    def test_stack_refuses_bad_drop_rate(self, rate):
        from repro import HyperspaceStack

        with pytest.raises(SimulationError, match="drop must be a probability"):
            HyperspaceStack(Ring(4), drop=rate)

    def test_rng_required_for_faults(self):
        with pytest.raises(SimulationError):
            FaultModel(drop_probability=0.5)

    def test_always_drop(self):
        fm = FaultModel(drop_probability=1.0, rng=random.Random(0))
        assert all(fm.copies_to_deliver() == 0 for _ in range(10))

    def test_always_duplicate(self):
        fm = FaultModel(duplicate_probability=1.0, rng=random.Random(0))
        assert all(fm.copies_to_deliver() == 2 for _ in range(10))

    def test_statistical_drop_rate(self):
        fm = FaultModel(drop_probability=0.3, rng=random.Random(7))
        n = 10_000
        dropped = sum(1 for _ in range(n) if fm.copies_to_deliver() == 0)
        assert 0.25 < dropped / n < 0.35

    def test_rng_required_for_duplicate_only(self):
        with pytest.raises(SimulationError):
            FaultModel(duplicate_probability=0.5)

    def test_both_certain_drop_dominates(self):
        fm = FaultModel(
            drop_probability=1.0, duplicate_probability=1.0,
            rng=random.Random(0),
        )
        assert all(fm.copies_to_deliver() == 0 for _ in range(10))


class TestIndependentDraws:
    """Regression: the duplicate draw must not be masked by a drop.

    ``copies_to_deliver`` consumes one RNG draw per configured fault
    (drop first, then duplicate) on *every* call, so the two fault
    streams are statistically independent and the stream position does
    not depend on earlier outcomes.
    """

    def test_seed_pinned_copies_sequence(self):
        # pinned against the documented sampling order; any change to the
        # draw order or conditional consumption breaks this sequence
        fm = FaultModel(0.4, 0.35, rng=random.Random(2026))
        assert [fm.copies_to_deliver() for _ in range(20)] == [
            0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 2, 0, 0, 1, 2, 1,
        ]

    def test_constant_rng_consumption_per_call(self):
        # both faults configured -> exactly two draws per call, dropped
        # or not; a shadow RNG advanced 2 draws/call must stay in sync
        fm = FaultModel(0.7, 0.3, rng=random.Random(99))
        shadow = random.Random(99)
        for _ in range(50):
            fm.copies_to_deliver()
            shadow.random(), shadow.random()
        assert fm._rng.random() == shadow.random()

    def test_certain_duplicate_never_masked_by_drops(self):
        # with duplicate_probability=1.0 every *delivered* message must be
        # duplicated — under the old entangled sampling, the draw that
        # followed a drop could yield copies == 1
        fm = FaultModel(0.5, 1.0, rng=random.Random(11))
        copies = [fm.copies_to_deliver() for _ in range(200)]
        assert set(copies) == {0, 2}

    def test_duplicate_stream_independent_of_drop_rate(self):
        # same seed, wildly different drop rates: the duplicate draw for
        # message i is RNG draw 2i+1 either way, so the duplicate stream
        # (and the RNG stream position) is identical
        always = FaultModel(1.0, 0.5, rng=random.Random(31337))
        never = FaultModel(1e-12, 0.5, rng=random.Random(31337))
        shadow = random.Random(31337)
        expect = []
        for _ in range(40):
            shadow.random()  # drop draw
            expect.append(shadow.random() < 0.5)  # duplicate draw
        got = [never.copies_to_deliver() == 2 for _ in range(40)]
        assert got == expect
        assert all(always.copies_to_deliver() == 0 for _ in range(40))
        # both models consumed the same number of draws
        assert always._rng.random() == never._rng.random()


class TestFaultsInMachine:
    @staticmethod
    def flood_program():
        def init(node):
            return {"visited": False}

        def receive(node, state, sender, msg, send, neighbours):
            if not state["visited"]:
                state["visited"] = True
                for n in neighbours:
                    send(n, None)

        return FunctionalProgram(init, receive)

    def test_total_drop_stops_traversal(self):
        fm = FaultModel(drop_probability=1.0, rng=random.Random(0))
        m = Machine(Ring(6), self.flood_program(), faults=fm)
        m.inject(0, None)
        report = m.run()
        # the injected message itself is dropped: nothing ever happens
        assert report.delivered_total == 0
        assert report.dropped_total == 1
        assert not m.state_of(0)["visited"]

    def test_duplication_inflates_delivery(self):
        fm = FaultModel(duplicate_probability=1.0, rng=random.Random(0))
        m = Machine(Ring(6), self.flood_program(), faults=fm)
        m.inject(0, None)
        report = m.run()
        # every send delivers twice; traversal still visits everyone
        assert all(m.state_of(n)["visited"] for n in range(6))
        assert report.delivered_total == 2 * report.sent_total

    def test_traversal_reliable_under_moderate_duplication(self):
        fm = FaultModel(duplicate_probability=0.2, rng=random.Random(3))
        m = Machine(Ring(8), self.flood_program(), faults=fm)
        m.inject(0, None)
        m.run()
        assert all(m.state_of(n)["visited"] for n in range(8))

    def test_deterministic_given_seed(self):
        def run(seed):
            fm = FaultModel(drop_probability=0.4, rng=random.Random(seed))
            m = Machine(Ring(8), self.flood_program(), faults=fm)
            m.inject(0, None)
            return m.run().delivered_total

        assert run(5) == run(5)
