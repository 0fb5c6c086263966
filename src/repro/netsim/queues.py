"""Inbox queue implementations and pop policies.

The paper's backend uses plain FIFO queues of unbounded capacity ("inter-node
message queues were sufficiently large to accommodate all pushed messages").
FIFO/unbounded is the default here; LIFO and seeded-random pop orders plus
finite capacities are provided as documented extensions, used by the
ablation benches and by tests probing ordering assumptions.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Iterator, List, Optional

from ..errors import QueueOverflowError, SimulationError
from .message import Envelope

__all__ = ["Inbox", "FifoInbox", "LifoInbox", "RandomInbox", "make_inbox"]


class Inbox:
    """Abstract per-node inbox."""

    __slots__ = ("capacity",)

    def __init__(self, capacity: Optional[int]) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"inbox capacity must be >= 1, got {capacity}")
        self.capacity = capacity

    def push(self, env: Envelope) -> None:
        """Enqueue; raises :class:`QueueOverflowError` when full."""
        if self.capacity is not None and len(self) >= self.capacity:
            raise QueueOverflowError(
                f"inbox of node {env.dst} overflowed (capacity {self.capacity})"
            )
        self._store(env)

    def pop(self) -> Envelope:
        """Dequeue one message according to this inbox's policy."""
        raise NotImplementedError

    def _store(self, env: Envelope) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Envelope]:
        raise NotImplementedError


class FifoInbox(Inbox):
    """First-in first-out inbox — the paper's queue discipline."""

    __slots__ = ("_q",)

    def __init__(self, capacity: Optional[int] = None) -> None:
        super().__init__(capacity)
        self._q: deque[Envelope] = deque()

    def _store(self, env: Envelope) -> None:
        self._q.append(env)

    def pop(self) -> Envelope:
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)

    def __iter__(self) -> Iterator[Envelope]:
        return iter(self._q)


class _SealableInbox(Inbox):
    """List-backed inbox whose pop order is not arrival order.

    Pushes append, so the messages present when :meth:`seal` was called
    are the first ``_sealed`` entries, and the next pop takes one of
    those: the machine seals an inbox at the start of a step's delivery
    round, which keeps "sent during step *t*, deliverable from *t+1*"
    true whatever the pop order.  An unsealed inbox pops among everything
    it holds.
    """

    __slots__ = ("_q", "_sealed")

    def __init__(self, capacity: Optional[int] = None) -> None:
        super().__init__(capacity)
        self._q: List[Envelope] = []
        self._sealed = 0

    def seal(self) -> None:
        """Restrict the next pop to the messages queued right now."""
        self._sealed = len(self._q)

    def _newest_eligible(self) -> int:
        """Index of the newest message the next pop may take (one pop per seal)."""
        newest = (self._sealed or len(self._q)) - 1
        self._sealed = 0
        return newest

    def _store(self, env: Envelope) -> None:
        self._q.append(env)

    def __len__(self) -> int:
        return len(self._q)

    def __iter__(self) -> Iterator[Envelope]:
        return iter(self._q)


class LifoInbox(_SealableInbox):
    """Last-in first-out inbox — depth-first-flavoured delivery order."""

    __slots__ = ()

    def pop(self) -> Envelope:
        return self._q.pop(self._newest_eligible())


class RandomInbox(_SealableInbox):
    """Uniform-random pop order (seeded) — models unordered networks."""

    __slots__ = ("_rng",)

    def __init__(
        self,
        rng: random.Random,
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(capacity)
        self._rng = rng

    def pop(self) -> Envelope:
        q = self._q
        newest = self._newest_eligible()
        i = self._rng.randrange(newest + 1)
        q[i], q[newest] = q[newest], q[i]
        return q.pop(newest)


def make_inbox(
    policy: str,
    rng: random.Random,
    capacity: Optional[int] = None,
) -> Inbox:
    """Build an inbox for the given pop ``policy`` (fifo / lifo / random)."""
    if policy == "fifo":
        return FifoInbox(capacity)
    if policy == "lifo":
        return LifoInbox(capacity)
    if policy == "random":
        return RandomInbox(rng, capacity)
    raise SimulationError(f"unknown queue policy {policy!r}")
