"""Unit tests for mapping algorithms (paper §V-D)."""

import random

import pytest

from repro.errors import MappingError
from repro.mapping import (
    MAPPERS,
    HintAwareMapper,
    LeastBusyNeighbourMapper,
    MappingService,
    MapperView,
    RandomMapper,
    RoundRobinMapper,
    StatusMsg,
    mapper_class,
)
from repro.netsim import Machine
from repro.sched import Address, SchedulerProgram
from repro.topology import Ring


def make_view(neighbours=(1, 2, 3, 4), node=0, seed=0):
    return MapperView(node, neighbours, random.Random(seed))


def report(view, src, count):
    """What the mapping service does with a count ``src`` piggybacked."""
    view.neighbour_counts[src] = max(count, view.known_count(src))


class TestMapperView:
    """The mapping service keeps a view's neighbour counts up to date from
    the count every message of a neighbour carries."""

    @staticmethod
    def view_after(*statuses):
        """Node 0's view once ``(src, count)`` status messages reached it."""
        service = MappingService(_IdleApp(), "lbn")
        machine = Machine(Ring(4), SchedulerProgram([service]))
        pctx = machine.state_of(0).proc_ctxs[0]
        for src, count in statuses:
            service.on_message(pctx, Address(src, 0), StatusMsg(count))
        return MappingService.view_of(pctx.state)

    def test_observe_records_count(self):
        assert self.view_after((1, 5)).known_count(1) == 5

    def test_unobserved_defaults_to_zero(self):
        assert make_view().known_count(3) == 0

    def test_observe_keeps_freshest(self):
        # stale (counts are monotone)
        assert self.view_after((1, 5), (1, 3)).known_count(1) == 5
        assert self.view_after((1, 5), (1, 3), (1, 9)).known_count(1) == 9


class TestRoundRobin:
    def test_circular_order(self):
        m = RoundRobinMapper()
        v = make_view((10, 20, 30))
        assert [m.choose(v, None) for _ in range(7)] == [10, 20, 30, 10, 20, 30, 10]

    def test_ignores_counts(self):
        m = RoundRobinMapper()
        v = make_view((1, 2))
        report(v, 1, 1000)
        assert m.choose(v, None) == 1  # static: counts irrelevant

    def test_no_neighbours_rejected(self):
        with pytest.raises(MappingError):
            RoundRobinMapper().choose(make_view(()), None)


class TestLeastBusyNeighbour:
    def test_picks_smallest_known_count(self):
        m = LeastBusyNeighbourMapper()
        v = make_view((1, 2, 3))
        report(v, 1, 10)
        report(v, 2, 2)
        report(v, 3, 7)
        assert m.choose(v, None) == 2

    def test_unheard_neighbours_look_idle(self):
        m = LeastBusyNeighbourMapper()
        v = make_view((1, 2, 3))
        report(v, 1, 4)
        report(v, 2, 4)
        assert m.choose(v, None) == 3  # never heard from -> count 0

    def test_random_tie_break_spreads(self):
        # choose alone never records posted work, so every pick is a tie
        m = LeastBusyNeighbourMapper()
        v = make_view((1, 2, 3, 4), seed=42)
        picks = {m.choose(v, None) for _ in range(40)}
        assert len(picks) > 1

    def test_outstanding_tracking_spreads_bursts(self):
        m = LeastBusyNeighbourMapper()
        v = make_view((1, 2, 3))
        picks = []
        for _ in range(3):
            dst = m.choose(v, None)
            m.on_sent(v, dst, None)
            picks.append(dst)
        assert sorted(picks) == [1, 2, 3]

    def test_reply_retires_outstanding(self):
        m = LeastBusyNeighbourMapper()
        v = make_view((1, 2))
        m.on_sent(v, 1, None)
        m.on_sent(v, 1, None)
        m.on_reply(v, 1)
        m.on_reply(v, 1)
        m.on_reply(v, 1)  # extra replies are tolerated
        assert m._outstanding == {}

    def test_no_neighbours_rejected(self):
        with pytest.raises(MappingError):
            LeastBusyNeighbourMapper().choose(make_view(()), None)


class TestRandomMapper:
    def test_uniformish(self):
        m = RandomMapper()
        v = make_view((1, 2, 3, 4), seed=3)
        picks = [m.choose(v, None) for _ in range(400)]
        for n in (1, 2, 3, 4):
            assert 50 < picks.count(n) < 150

    def test_deterministic_given_seed(self):
        a = [RandomMapper().choose(make_view(seed=9), None) for _ in range(5)]
        b = [RandomMapper().choose(make_view(seed=9), None) for _ in range(5)]
        assert a == b


class TestHintAware:
    def test_defaults_to_least_busy(self):
        m = HintAwareMapper()
        v = make_view((1, 2))
        report(v, 1, 5)
        assert m.choose(v, None) == 2

    def test_outstanding_hints_steer_away(self):
        m = HintAwareMapper()
        v = make_view((1, 2))
        m.on_sent(v, 1, 100.0)  # heavy work sent to 1
        assert m.choose(v, 1.0) == 2

    def test_reply_retires_hint_load(self):
        m = HintAwareMapper()
        v = make_view((1, 2))
        m.on_sent(v, 1, 100.0)
        m.on_reply(v, 1)
        report(v, 2, 1)
        assert m.choose(v, None) == 1

    def test_unhinted_work_uses_default(self):
        m = HintAwareMapper()
        v = make_view((1, 2))
        m.on_sent(v, 1, None)
        assert m._outstanding[1] == HintAwareMapper.DEFAULT_HINT

    def test_fifo_retirement_order(self):
        m = HintAwareMapper()
        v = make_view((1, 2))
        m.on_sent(v, 1, 10.0)
        m.on_sent(v, 1, 1.0)
        m.on_reply(v, 1)  # retires the 10.0 first
        assert m._outstanding[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_without_hints_it_chooses_like_least_busy(self, seed):
        script = random.Random(seed)
        neighbours = tuple(script.sample(range(1, 20), script.randint(2, 6)))
        hint, lbn = HintAwareMapper(), LeastBusyNeighbourMapper()
        hint_view, lbn_view = make_view(neighbours, seed=seed), make_view(neighbours, seed=seed)
        for _ in range(200):
            event, n = script.random(), script.choice(neighbours)
            if event < 0.3:
                count = script.randint(0, 5)
                report(hint_view, n, count)
                report(lbn_view, n, count)
            elif event < 0.5:
                hint.on_reply(hint_view, n)
                lbn.on_reply(lbn_view, n)
            else:
                dst = hint.choose(hint_view, None)
                assert dst == lbn.choose(lbn_view, None)
                hint.on_sent(hint_view, dst, None)
                lbn.on_sent(lbn_view, dst, None)
        assert hint_view.rng.getstate() == lbn_view.rng.getstate()


class _IdleApp:
    def init(self, mctx):
        pass


class TestFactory:
    """``MAPPERS`` is the one factory: a name builds a fresh mapper per node."""

    @pytest.mark.parametrize("name", ["rr", "lbn", "random", "hint"])
    def test_known_names(self, name):
        sched = SchedulerProgram([MappingService(_IdleApp(), name)])
        machine = Machine(Ring(4), sched)
        mappers = [sched.process_state(machine, n).mapper for n in range(4)]
        assert all(type(m) is MAPPERS[name] for m in mappers)
        assert len({id(m) for m in mappers}) == 4

    def test_unknown_name(self):
        # a class or a factory is refused like a misspelt name
        expected = r"expected one of \('rr', 'lbn', 'random', 'hint'\)"
        for bad in ("banana", RoundRobinMapper, lambda: RoundRobinMapper(), None):
            with pytest.raises(MappingError, match=expected):
                mapper_class(bad)
            with pytest.raises(MappingError, match=expected):
                MappingService(_IdleApp(), bad)

    def test_the_other_name_lists_read_the_registry(self):
        from repro.cli import build_parser
        from repro.conformance.space import SPACE
        from repro.engine import RunSpec, violations

        assert set(SPACE["mapper"]) == set(MAPPERS)
        for name in MAPPERS:
            assert violations(RunSpec(mapper=name)) == []
        assert [code for code, _ in violations(RunSpec(mapper="banana"))] == ["mapper"]
        parser = build_parser()
        for name in MAPPERS:
            assert parser.parse_args(["solve", "--mapper", name]).mapper == name
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "--mapper", "banana"])


# -- one-pass ``choose`` against the two-pass code it replaced -----------------


def two_pass_choose(score, view):
    """The replaced shape: ``min`` over the scores, then rescore for ties."""
    best = min(score(n) for n in view.neighbours)
    candidates = [n for n in view.neighbours if score(n) == best]
    if len(candidates) == 1:
        return candidates[0]
    return candidates[view.rng.randrange(len(candidates))]


def lbn_reference(mapper, view):
    def score(n):
        return float(view.known_count(n)) + mapper._outstanding.get(n, 0)

    return two_pass_choose(score, view)


def hint_reference(mapper, view):
    def score(n):
        return view.known_count(n) + mapper._outstanding.get(n, 0.0)

    return two_pass_choose(score, view)


class TestOnePassChooseMatchesTwoPass:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "make,reference",
        [(LeastBusyNeighbourMapper, lbn_reference), (HintAwareMapper, hint_reference)],
        ids=["lbn", "hint"],
    )
    def test_same_destination_and_same_rng_draws(self, make, reference, seed):
        history = random.Random(seed)
        neighbours = tuple(history.sample(range(1, 40), history.randint(1, 6)))
        mapper = make()
        # two views fed identically, with equally seeded tie-break streams
        view, shadow = make_view(neighbours, seed=seed), make_view(neighbours, seed=seed)
        for _ in range(300):
            event = history.random()
            n = history.choice(neighbours)
            if event < 0.3:
                count = history.randint(0, 6)  # small range: ties are common
                report(view, n, count)
                report(shadow, n, count)
            elif event < 0.45:
                mapper.on_reply(view, n)
            else:
                hint = history.choice([None, 1.0, 2.0, 4.0])
                expected = reference(mapper, shadow)
                dst = mapper.choose(view, hint)
                assert dst == expected
                mapper.on_sent(view, dst, hint)
        assert view.rng.getstate() == shadow.rng.getstate()
        if len(neighbours) > 1:  # ties were drawn for, not merely possible
            assert view.rng.getstate() != random.Random(seed).getstate()


def test_reading_the_registry_loads_no_service():
    # MAPPERS is four names: reading it (the CLI's --mapper choices) must
    # not import the mapping service and, through it, layers 1-2
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys, repro.mapping.mappers; "
        "print(sorted(m for m in ('repro.mapping.service', 'repro.sched', "
        "'repro.netsim') if m in sys.modules))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert proc.stdout.strip() == "[]"
