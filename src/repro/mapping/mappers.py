"""Mapping algorithms (paper §V-D).

A mapper answers one question: *which neighbour should execute this new
sub-problem?*  The paper classifies mappers as **static** (behaviour fixed
apriori — round robin) or **adaptive** (influenced by runtime activity —
least busy neighbour).  Both of the paper's algorithms are implemented here,
plus extensions used by the ablation benches:

* :class:`RoundRobinMapper` — "map sub-problems to adjacent cores in
  circular order" (static, the paper's baseline);
* :class:`LeastBusyNeighbourMapper` — "maintain a record of neighbouring
  node counts; map sub-problems to neighbour with the smallest count"
  (adaptive);
* :class:`RandomMapper` — seeded uniform choice (static, for control runs);
* :class:`HintAwareMapper` — least-busy extended with cross-layer size
  hints (paper §III-B3): delegating *larger* sub-problems to *less* utilized
  neighbours by tracking outstanding hinted load per neighbour.

:data:`MAPPERS` maps each name to its class; layer 3 builds one fresh
mapper per node from it.  :class:`MapperView` is the slice of node state
they may consult.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Type

from ..declared import Declared
from ..domains import judge
from ..errors import MappingError
from ..topology import NodeId

__all__ = [
    "MapperView",
    "RoundRobinMapper",
    "LeastBusyNeighbourMapper",
    "RandomMapper",
    "HintAwareMapper",
    "MAPPERS",
    "mapper_class",
]


class MapperView:
    """Per-node information exposed to mapping algorithms.

    Attributes
    ----------
    node:
        This node's id.
    neighbours:
        Adjacent nodes in topology order.
    received_count:
        Total messages this node's mapping service has received.
    neighbour_counts:
        Largest received-count each neighbour has reported (piggybacked or
        in a status message; the mapping service keeps it); missing entries
        mean "never heard from".
    rng:
        Seeded per-node random stream for tie-breaking.
    """

    __slots__ = ("node", "neighbours", "received_count", "neighbour_counts", "rng")

    def __init__(
        self, node: NodeId, neighbours: Sequence[NodeId], rng: random.Random
    ) -> None:
        self.node = node
        self.neighbours = tuple(neighbours)
        self.received_count = 0
        self.neighbour_counts: Dict[NodeId, int] = {}
        self.rng = rng

    def known_count(self, neighbour: NodeId) -> int:
        """Latest count for ``neighbour`` (0 if never observed)."""
        return self.neighbour_counts.get(neighbour, 0)


def _least_busy_choose(self, view: MapperView, hint: Optional[float]) -> NodeId:
    """Least known count plus outstanding load, ties broken by seeded random
    choice; each class that scores so binds it as its own ``choose``."""
    if not view.neighbours:
        raise MappingError(f"node {view.node} has no neighbours to map work to")
    known, outstanding = view.neighbour_counts.get, self._outstanding.get
    best, candidates = None, []
    for n in view.neighbours:
        score = known(n, 0) + outstanding(n, 0)
        if best is None or score < best:
            best, candidates = score, [n]
        elif score == best:
            candidates.append(n)
    if len(candidates) == 1:
        return candidates[0]
    return candidates[view.rng.randrange(len(candidates))]


class _MapperBase(Declared):
    """Default no-op notification hooks; ``STATE`` names the mapper's state."""

    __slots__ = ()

    def on_sent(self, view: MapperView, dst: NodeId, hint: Optional[float]) -> None:
        return None

    def on_reply(self, view: MapperView, src: NodeId) -> None:
        return None


class RoundRobinMapper(_MapperBase):
    """Static circular mapping over the neighbour list (paper's "RR")."""

    __slots__ = STATE = ("_next",)

    #: registry name
    name = "rr"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, view: MapperView, hint: Optional[float]) -> NodeId:
        if not view.neighbours:
            raise MappingError(f"node {view.node} has no neighbours to map work to")
        dst = view.neighbours[self._next % len(view.neighbours)]
        self._next += 1
        return dst


class LeastBusyNeighbourMapper(_MapperBase):
    """Adaptive mapping to the neighbour with the smallest count
    (paper's "LBN").

    A neighbour's *expected* count is its last reported received-count plus
    the work this node has sent it that has not been answered yet — a
    message already posted to a neighbour is guaranteed to raise its count,
    so ignoring it (the literal reading of the paper's one-sentence
    description) makes a node fire whole bursts of subcalls at the same
    stale minimum.  The corrected estimate is what delivers the paper's
    headline result that large adaptive 2D machines match static 3D ones.

    Ties (common early on, when most neighbours have never been heard from)
    break by seeded random choice so work does not always pile onto the
    first neighbour in topology order.
    """

    __slots__ = STATE = ("_outstanding",)

    name = "lbn"

    def __init__(self) -> None:
        self._outstanding: Dict[NodeId, int] = {}

    choose = _least_busy_choose

    def on_sent(self, view: MapperView, dst: NodeId, hint: Optional[float]) -> None:
        self._outstanding[dst] = self._outstanding.get(dst, 0) + 1

    def on_reply(self, view: MapperView, src: NodeId) -> None:
        pending = self._outstanding.get(src, 0)
        if pending > 1:
            self._outstanding[src] = pending - 1
        else:
            self._outstanding.pop(src, None)


class RandomMapper(_MapperBase):
    """Uniform random neighbour choice (static, seeded)."""

    __slots__ = ()

    name = "random"

    def choose(self, view: MapperView, hint: Optional[float]) -> NodeId:
        if not view.neighbours:
            raise MappingError(f"node {view.node} has no neighbours to map work to")
        return view.neighbours[view.rng.randrange(len(view.neighbours))]


class HintAwareMapper(_MapperBase):
    """Least-busy mapping weighted by outstanding hinted load (§III-B3).

    The score of a neighbour is ``known_count + outstanding_hints``
    where ``outstanding_hints`` sums the size hints of work this node sent
    there that has not been replied to yet.  With no hints ever supplied it
    degenerates to plain least-busy-neighbour.
    """

    __slots__ = STATE = ("_outstanding", "_sent_order")

    name = "hint"

    #: hint assumed for work delegated without a hint
    DEFAULT_HINT = 1.0

    def __init__(self) -> None:
        self._outstanding: Dict[NodeId, float] = {}
        # FIFO of (dst, hint) so replies retire the oldest load first
        self._sent_order: list[tuple[NodeId, float]] = []

    choose = _least_busy_choose

    def on_sent(self, view: MapperView, dst: NodeId, hint: Optional[float]) -> None:
        h = self.DEFAULT_HINT if hint is None else float(hint)
        self._outstanding[dst] = self._outstanding.get(dst, 0.0) + h
        self._sent_order.append((dst, h))

    def on_reply(self, view: MapperView, src: NodeId) -> None:
        # retire the oldest outstanding load attributed to src
        for i, (dst, h) in enumerate(self._sent_order):
            if dst == src:
                del self._sent_order[i]
                remaining = self._outstanding.get(src, 0.0) - h
                if remaining <= 1e-12:
                    self._outstanding.pop(src, None)
                else:
                    self._outstanding[src] = remaining
                return


#: every mapper a run can name, by its registry name
MAPPERS: Dict[str, Type[_MapperBase]] = {
    cls.name: cls
    for cls in (RoundRobinMapper, LeastBusyNeighbourMapper, RandomMapper, HintAwareMapper)
}


def mapper_class(name: str) -> Type[_MapperBase]:
    """The mapper class registered as ``name``; anything else is refused."""
    judge("mapper", name)
    return MAPPERS[name]
