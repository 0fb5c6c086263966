"""Sharded-backend parity, pinned against the serial kernel's digests.

The :class:`~repro.netsim.ShardedMachine` promises a schedule that is
bit-identical to :class:`~repro.netsim.Machine` for any shard count and
either worker backend.  The strongest form of that claim is equality with
the *pre-existing* pinned digests of ``test_step_kernel_parity.py`` — the
sharded backend must land on the exact literals the serial kernel was
frozen at, so sharding cannot drift even together with the serial kernel.

Programs here are module-level classes: worker processes rebuild them by
pickling, and only picklable-by-reference code can cross that boundary.
"""

import multiprocessing
import random

import pytest

from repro.errors import SimulationError
from repro.netsim import (
    EMPTY_MSG,
    Machine,
    ShardProgramSpec,
    ShardWorkerError,
    ShardedMachine,
    resolve_shards,
)
from repro.netsim.digest import canonical_digest as canon
from repro.netsim.faults import FaultModel
from repro.topology import Torus

# the pinned serial-kernel digests from test_step_kernel_parity.py
PLAIN_STORM_DIGEST = "02727c11938513e2"
FAULTY_STORM_DIGEST = "75953611f8e8a1c0"
PROTECTED_STORM_DIGEST = "fa59d3a4d725030b"


class Storm:
    def init(self, ctx):
        ctx.state = 0

    def on_message(self, ctx, sender, payload):
        ctx.state += 1
        ctx.send(ctx.neighbours[ctx.state & 3], ctx.state)


class PollingCounter:
    """Exercises the poll round: counts steps, sends on a stride."""

    def init(self, ctx):
        ctx.state = 0
        ctx.machine.request_poll(ctx.node)

    def on_step(self, ctx):
        ctx.state += 1
        if ctx.state % 3 == 0:
            ctx.send(ctx.neighbours[0], ctx.state)
        ctx.machine.request_poll(ctx.node)

    def on_message(self, ctx, sender, payload):
        ctx.state += 100


class Exploder:
    def init(self, ctx):
        ctx.state = 0

    def on_message(self, ctx, sender, payload):
        raise RuntimeError("boom in handler")


def _state_rpc(program, ctx, arg):
    return ctx.state


def machine_digest(m, steps: int) -> str:
    for n in range(m.topology.n_nodes):
        m.inject(n, EMPTY_MSG)
    m.run(max_steps=steps)
    rep = m.report()
    if isinstance(m, ShardedMachine):
        per = m.map_nodes(_state_rpc)
        states = [per[n] for n in range(m.topology.n_nodes)]
    else:
        states = [m.state_of(n) for n in range(m.topology.n_nodes)]
    return canon({
        "states": states,
        "sent": rep.sent_total,
        "delivered": rep.delivered_total,
        "dropped": rep.dropped_total,
        "queued": rep.queued_series.tolist(),
        "per_step": rep.delivered_series.tolist(),
        "node_delivered": rep.node_delivered.tolist(),
        "steps": rep.steps,
    })


def sharded(program, backend, shards, **kw):
    return ShardedMachine(
        Torus((6, 6)), program, shards=shards, shard_backend=backend, **kw
    )


class TestPinnedParity:
    """The sharded backend hits the serial kernel's frozen literals."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_plain_storm(self, backend, shards):
        with sharded(Storm(), backend, shards) as m:
            assert machine_digest(m, 60) == PLAIN_STORM_DIGEST

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_faulty_latent_storm_rng_order(self, backend):
        # fault-model draws happen on the coordinator in replay order;
        # one reordered draw would shift every later drop decision
        with sharded(
            Storm(), backend, 4,
            faults=FaultModel(0.08, 0.03, rng=random.Random(42)),
            latency=2,
        ) as m:
            assert machine_digest(m, 60) == FAULTY_STORM_DIGEST

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_protected_storm(self, backend):
        # the layer-1.5 reliability protocol runs wholly coordinator-side
        with sharded(Storm(), backend, 4, reliability=True) as m:
            assert machine_digest(m, 60) == PROTECTED_STORM_DIGEST

    def test_poll_round_parity(self):
        serial = Machine(Torus((6, 6)), PollingCounter())
        want = machine_digest(serial, 30)
        for backend in ("inline", "process"):
            with sharded(PollingCounter(), backend, 4) as m:
                assert machine_digest(m, 30) == want

    def test_spawn_context_parity(self):
        # spawn re-imports this module inside the worker: the strictest
        # picklability check the backend faces
        with ShardedMachine(
            Torus((6, 6)), Storm(), shards=2, shard_backend="process",
            mp_context="spawn",
        ) as m:
            assert machine_digest(m, 60) == PLAIN_STORM_DIGEST

    def test_program_spec_builds_in_worker(self):
        spec = ShardProgramSpec(Storm)
        with ShardedMachine(
            Torus((6, 6)), spec, shards=2, shard_backend="process"
        ) as m:
            assert machine_digest(m, 60) == PLAIN_STORM_DIGEST

    def test_one_shard_matches_serial(self):
        with ShardedMachine(Torus((6, 6)), Storm(), shards=1) as m:
            assert m.shard_backend == "inline"
            assert machine_digest(m, 60) == PLAIN_STORM_DIGEST


class TestResolveShards:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert resolve_shards(None) == 3

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert resolve_shards(2) == 2

    def test_auto_and_zero_mean_all_cores(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_shards("auto") == cores
        assert resolve_shards(0) == cores

    def test_not_capped_at_core_count(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_shards(cores + 7) == cores + 7

    def test_garbage_rejected(self):
        with pytest.raises(SimulationError):
            resolve_shards("many")
        with pytest.raises(SimulationError):
            resolve_shards(-2)

    @pytest.mark.parametrize("shards", [2.5, 2.0, True, False])
    def test_float_and_bool_rejected(self, shards):
        # int() would have run 2.5 as 2 shards and True as 1
        with pytest.raises(SimulationError, match="invalid shard count"):
            resolve_shards(shards)

    def test_shard_count_clamped_to_nodes(self):
        with ShardedMachine(Torus((2, 2)), Storm(), shards=9,
                            shard_backend="inline") as m:
            assert m.shards == 4


class TestGuards:
    def test_non_fifo_queue_rejected(self):
        with pytest.raises(SimulationError, match="FIFO"):
            ShardedMachine(Torus((4, 4)), Storm(), shards=2,
                           shard_backend="inline", queue_policy="lifo")

    def test_bounded_queue_rejected(self):
        with pytest.raises(SimulationError, match="FIFO"):
            ShardedMachine(Torus((4, 4)), Storm(), shards=2,
                           shard_backend="inline", queue_capacity=8)

    def test_bad_backend_name_rejected(self):
        with pytest.raises(SimulationError, match="shard_backend"):
            ShardedMachine(Torus((4, 4)), Storm(), shards=2,
                           shard_backend="threads")

    def test_state_of_redirects_to_map_nodes(self):
        with sharded(Storm(), "inline", 2) as m:
            with pytest.raises(SimulationError, match="map_nodes"):
                m.state_of(0)

    def test_unpicklable_program_rejected_by_process_backend(self):
        class Local(Storm):
            pass

        with pytest.raises(SimulationError, match="picklable"):
            ShardedMachine(Torus((4, 4)), Local(), shards=2,
                           shard_backend="process")

    def test_auto_backend_falls_back_inline_for_unpicklable(self):
        class Local(Storm):
            pass

        with ShardedMachine(Torus((4, 4)), Local(), shards=2,
                            shard_backend="auto") as m:
            assert m.shard_backend == "inline"
            assert machine_digest(m, 20)  # still runs

    def test_worker_exception_carries_shard_traceback(self):
        with sharded(Exploder(), "process", 2) as m:
            m.inject(0, EMPTY_MSG)
            with pytest.raises(RuntimeError, match="boom in handler"):
                m.step()

    def test_close_is_idempotent(self):
        m = sharded(Storm(), "process", 2)
        m.close()
        m.close()


class TestMapNodes:
    def test_gathers_every_node(self):
        with sharded(Storm(), "process", 4) as m:
            for n in range(m.topology.n_nodes):
                m.inject(n, EMPTY_MSG)
            m.run(max_steps=10)
            per = m.map_nodes(_state_rpc)
            assert sorted(per) == list(range(36))
            assert all(isinstance(v, int) for v in per.values())

    def test_partition_telemetry_counters(self):
        from repro.telemetry import TelemetryBus
        from repro.telemetry.metrics import MetricsSubscriber

        bus = TelemetryBus()
        sub = bus.attach(MetricsSubscriber())
        with ShardedMachine(Torus((4, 4)), Storm(), shards=4,
                            shard_backend="inline", telemetry=bus) as m:
            assert m.edge_cut > 0
        bus.flush()
        reg = sub.registry
        assert reg["l1.shard_count"].value == 4
        assert reg["l1.shard_edge_cut"].value == m.edge_cut
