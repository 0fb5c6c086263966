"""Tests for inbox queue policies and capacities."""

import random

import pytest

from repro.errors import QueueOverflowError, SimulationError
from repro.netsim import FifoInbox, LifoInbox, RandomInbox, make_inbox
from repro.netsim.message import Envelope


def env(i):
    return Envelope(src=0, dst=1, payload=i, sent_step=0, msg_id=i)


class TestFifo:
    def test_order(self):
        q = FifoInbox()
        for i in range(5):
            q.push(env(i))
        assert [q.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_len(self):
        q = FifoInbox()
        q.push(env(1))
        q.push(env(2))
        assert len(q) == 2
        q.pop()
        assert len(q) == 1

    def test_iter(self):
        q = FifoInbox()
        for i in range(3):
            q.push(env(i))
        assert [e.payload for e in q] == [0, 1, 2]


class TestLifo:
    def test_order(self):
        q = LifoInbox()
        for i in range(5):
            q.push(env(i))
        assert [q.pop().payload for _ in range(5)] == [4, 3, 2, 1, 0]


class TestRandom:
    def test_pops_everything_once(self):
        q = RandomInbox(random.Random(1))
        for i in range(10):
            q.push(env(i))
        popped = sorted(q.pop().payload for _ in range(10))
        assert popped == list(range(10))

    def test_deterministic_given_seed(self):
        def run(seed):
            q = RandomInbox(random.Random(seed))
            for i in range(8):
                q.push(env(i))
            return [q.pop().payload for _ in range(8)]

        assert run(42) == run(42)
        assert run(42) != run(43)  # overwhelmingly likely


class TestCapacity:
    def test_overflow_raises_by_default(self):
        q = FifoInbox(capacity=2)
        q.push(env(1))
        q.push(env(2))
        with pytest.raises(QueueOverflowError):
            q.push(env(3))

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            FifoInbox(capacity=0)


class TestFactory:
    def test_known_policies(self):
        rng = random.Random(0)
        assert isinstance(make_inbox("fifo", rng), FifoInbox)
        assert isinstance(make_inbox("lifo", rng), LifoInbox)
        assert isinstance(make_inbox("random", rng), RandomInbox)

    def test_unknown_policy(self):
        with pytest.raises(SimulationError):
            make_inbox("priority", random.Random(0))


class TestMachineQueuePolicies:
    def test_lifo_machine_reverses_burst(self):
        from repro.netsim import Machine
        from repro.topology import Ring

        log = []

        class Echo:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                log.append(payload)

        m = Machine(Ring(3), Echo(), queue_policy="lifo")
        for p in ("a", "b", "c"):
            m.inject(0, p)
        m.run()
        assert log == ["c", "b", "a"]

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
    def test_no_policy_delivers_a_message_in_the_step_it_was_sent(self, policy):
        # node 0 (handled first) sends to node 1 during step 0; node 1's pop
        # in that same step must choose among what was queued at step start
        from repro.netsim import Machine
        from repro.topology import Ring

        received = []

        class Relay:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                if payload == "go":
                    ctx.send(1, "fresh")
                elif ctx.node == 1:
                    received.append((ctx.machine.current_step, payload))

        for seed in range(8):  # the random policy draws from the machine seed
            received.clear()
            m = Machine(Ring(4), Relay(), queue_policy=policy, seed=seed)
            m.inject(1, "old")
            m.inject(1, "old2")
            m.inject(0, "go")
            m.run()
            assert sorted(p for _, p in received) == ["fresh", "old", "old2"]
            assert {p: step for step, p in received}["fresh"] >= 1
            if policy == "fifo":
                assert [p for _, p in received] == ["old", "old2", "fresh"]

    def test_sealed_pop_ignores_later_pushes(self):
        for inbox in (LifoInbox(), RandomInbox(random.Random(3))):
            inbox.push(env(1))
            inbox.push(env(2))
            inbox.seal()
            inbox.push(env(3))
            assert inbox.pop().payload in (1, 2)
            # one pop per seal: the next unsealed pop sees everything
            assert len(inbox) == 2
