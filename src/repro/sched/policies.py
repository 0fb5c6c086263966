"""The node-level scheduling rule (paper Figure 2, layer 2 concerns).

When several processes on one node have pending local messages, the
policy decides which process runs next.  The paper's layer-2 concern list
names "round-robin" and "preemptive" scheduling; the stack runs exactly
those two: :class:`RoundRobinPolicy` picks who runs, and "preemption"
granularity is modelled by the scheduler's per-step message budget.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import SchedulingError

__all__ = ["RoundRobinPolicy"]


class RoundRobinPolicy:
    """Cycle fairly through runnable processes.

    Remembers the last pid run and picks the next runnable pid in cyclic
    ascending order, so no runnable process starves.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last = -1

    def select(self, runnable: Sequence[int]) -> int:
        """Return one pid from ``runnable`` (non-empty, ascending order)."""
        if not runnable:
            raise SchedulingError("select() called with no runnable process")
        for pid in runnable:
            if pid > self._last:
                self._last = pid
                return pid
        self._last = runnable[0]
        return runnable[0]
