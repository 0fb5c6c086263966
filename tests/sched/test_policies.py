"""Unit tests for the round-robin scheduling rule in isolation."""

import pytest

from repro.errors import SchedulingError
from repro.sched import RoundRobinPolicy


class TestRoundRobin:
    def test_cycles_through_all(self):
        p = RoundRobinPolicy()
        picks = [p.select([0, 1, 2]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_non_runnable(self):
        p = RoundRobinPolicy()
        assert p.select([0, 2]) == 0
        assert p.select([0, 2]) == 2
        assert p.select([0, 2]) == 0

    def test_wraps_after_highest(self):
        p = RoundRobinPolicy()
        assert p.select([3]) == 3
        assert p.select([1, 3]) == 1

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            RoundRobinPolicy().select([])

    def test_no_starvation_under_churn(self):
        p = RoundRobinPolicy()
        seen = set()
        runnable = [0, 1, 2, 3]
        for _ in range(8):
            seen.add(p.select(runnable))
        assert seen == {0, 1, 2, 3}
