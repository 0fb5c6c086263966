"""Digests and checkpoints see declared state, not storage.

The four mappers and the int-counter records declare their state
(``repro.declared``).  A subclass that adds a cache slot must therefore
leave every pinned digest where it is; a state in the form default
pickling wrote before the classes declared theirs must still restore; and
the declared pairs must normalize exactly like the old slot walk.
"""

import copy
import itertools
import pickle
import random

import pytest

import repro.recursion.engine
import repro.workloads
from repro.apps.sat.cdcl import CdclStats
from repro.apps.sat.cnf import CNF as _CNF
from repro.apps.sat.dpll import SolveStats
from repro.engine import execute
from repro.mapping.mappers import (
    MAPPERS,
    HintAwareMapper as _HintAwareMapper,
    LeastBusyNeighbourMapper as _LeastBusyNeighbourMapper,
    MapperView,
    RandomMapper,
    RoundRobinMapper,
)
from repro.recursion.engine import EngineStats as _EngineStats
from repro.reliability import LinkLayerStats
from repro.state import normalize

from .test_run_pins import PINNED, SPECS

#: bumped by every write to a cache slot below
TICKS = itertools.count()


# -- same-named subclasses, each with one cache slot a run keeps changing ----


class CNF(_CNF):
    __slots__ = ("_assigned",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_assigned", next(TICKS))

    def assign(self, lit):
        object.__setattr__(self, "_assigned", next(TICKS))
        return super().assign(lit)


class LeastBusyNeighbourMapper(_LeastBusyNeighbourMapper):
    __slots__ = ("_last",)

    def __init__(self):
        super().__init__()
        self._last = None

    def choose(self, view, hint):
        dst = _LeastBusyNeighbourMapper.choose(self, view, hint)
        self._last = (dst, next(TICKS))
        return dst


class HintAwareMapper(_HintAwareMapper):
    __slots__ = ("_last",)

    def __init__(self):
        super().__init__()
        self._last = None

    def choose(self, view, hint):
        dst = _HintAwareMapper.choose(self, view, hint)
        self._last = (dst, next(TICKS))
        return dst


class EngineStats(_EngineStats):
    __slots__ = ("_writes",)

    def __init__(self):
        object.__setattr__(self, "_writes", 0)
        super().__init__()

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        object.__setattr__(self, "_writes", self._writes + 1)


def _patch_cached_classes(m):
    m.setattr(repro.workloads, "CNF", CNF)
    m.setattr(repro.recursion.engine, "EngineStats", EngineStats)
    m.setitem(MAPPERS, "lbn", LeastBusyNeighbourMapper)
    m.setitem(MAPPERS, "hint", HintAwareMapper)


@pytest.mark.parametrize("workload", ["sat", "nqueens"])
def test_a_cache_slot_moves_no_pinned_digest(monkeypatch, workload):
    _patch_cached_classes(monkeypatch)
    start = next(TICKS)
    run = execute(SPECS[workload], want_state_digest=True)
    assert next(TICKS) > start + 1, "no cache slot was written"
    assert (run.schedule_digest(), run.semantic_digest) == PINNED[workload]


def _checkpoints():
    sink = []
    execute(SPECS["sat"].with_(checkpoint_every=5), checkpoint_sink=sink.append)
    return sink


def test_a_cache_slot_moves_no_checkpoint_digest(monkeypatch):
    plain = [c.state_digest for c in _checkpoints()]
    with monkeypatch.context() as m:
        _patch_cached_classes(m)
        cached = _checkpoints()
        assert [c.state_digest for c in cached] == plain
        run = execute(SPECS["sat"], resume_from=cached[1], want_state_digest=True)
    assert (run.schedule_digest(), run.semantic_digest) == PINNED["sat"]


# -- restoring, and the digest form -----------------------------------------


def _view():
    view = MapperView(0, (1, 2, 3), random.Random(7))
    view.neighbour_counts.update({1: 4, 2: 1})
    return view


def _busy(cls):
    """An instance of ``cls`` whose declared state is off its defaults."""
    obj = cls()
    if isinstance(obj, (_LeastBusyNeighbourMapper, _HintAwareMapper, RoundRobinMapper)):
        view = _view()
        for hint in (None, 2.5, None):
            obj.on_sent(view, obj.choose(view, hint), hint)
        obj.on_reply(view, 1)
    for i, name in enumerate(getattr(obj, "STATE", ())):
        if isinstance(getattr(obj, name), int):
            setattr(obj, name, 3 * i + 1)
    return obj


STATEFUL = [RoundRobinMapper, _LeastBusyNeighbourMapper, RandomMapper,
            _HintAwareMapper, _EngineStats, LinkLayerStats, SolveStats, CdclStats]


def _slot_walk(obj):
    """What ``normalize`` made of these classes before they declared state."""
    slots = type(obj).__slots__
    return ["obj", type(obj).__name__,
            [[name, normalize(getattr(obj, name))] for name in sorted(slots)]]


@pytest.mark.parametrize("cls", STATEFUL, ids=lambda c: c.__name__)
def test_declared_state_normalizes_like_the_slot_walk(cls):
    obj = _busy(cls)
    assert normalize(obj) == _slot_walk(obj)


@pytest.mark.parametrize("cls", STATEFUL, ids=lambda c: c.__name__)
def test_every_restore_path_gives_the_same_state(cls):
    obj = _busy(cls)
    # what default pickling of a slotted object wrote: (None, {slot: value})
    legacy = cls.__new__(cls)
    legacy.__setstate__((None, {name: getattr(obj, name) for name in cls.__slots__}))
    for restored in (legacy, pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(restored) is cls
        assert normalize(restored) == normalize(obj)


def test_restore_rebuilds_undeclared_slots_and_ignores_unknown_fields():
    obj = LeastBusyNeighbourMapper()
    obj.choose(_view(), None)
    assert obj._last is not None
    restored = pickle.loads(pickle.dumps(obj))
    assert restored._last is None
    assert restored._outstanding == obj._outstanding
    gone = _LeastBusyNeighbourMapper.__new__(_LeastBusyNeighbourMapper)
    gone.__setstate__((None, {"_outstanding": {1: 2}, "track_outstanding": True}))
    assert gone._outstanding == {1: 2}


def test_a_counter_record_lists_its_counters():
    stats = _EngineStats()
    stats.invocations = 2
    assert list(stats.as_dict()) == list(_EngineStats.STATE)
    assert stats.as_dict()["invocations"] == 2
    assert repr(stats).startswith("EngineStats(invocations=2, completions=0")
