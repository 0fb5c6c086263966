"""Seed-pinned cross-commit parity for the batched step kernel.

The hot-path overhaul (batched deliveries, buffered telemetry, the
virtualized clean-link reliability path) must leave layer-1 semantics
bit-identical: same delivery schedule, same RNG draw order under faults,
same figure data.  Each digest below was computed by running the exact
same scenario on the pre-overhaul commit (the v0 growth seed) and is
pinned as a literal, so any behavioural drift in the kernel — not just a
crash — fails loudly.

If a digest changes, that is a *semantics* change to the simulator, not a
test to update casually: re-derive the value from a known-good commit and
justify the difference.
"""

import random

from repro.netsim import EMPTY_MSG, Machine
from repro.netsim.digest import canonical_digest as canon
from repro.netsim.faults import FaultModel
from repro.topology import Torus


class Storm:
    def init(self, ctx):
        ctx.state = 0

    def on_message(self, ctx, sender, payload):
        ctx.state += 1
        ctx.send(ctx.neighbours[ctx.state & 3], ctx.state)


def machine_digest(m: Machine, steps: int) -> str:
    for n in range(m.topology.n_nodes):
        m.inject(n, EMPTY_MSG)
    m.run(max_steps=steps)
    rep = m.report()
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


class TestKernelParity:
    def test_plain_storm_schedule_pinned(self):
        # pure batched-kernel path: no faults, no latency, no telemetry
        m = Machine(Torus((6, 6)), Storm())
        assert machine_digest(m, 60) == "02727c11938513e2"

    def test_faulty_int_latent_storm_rng_order_pinned(self):
        # the unprotected slow path must consume fault-model draws in the
        # exact pre-overhaul order — a reordered draw shifts every
        # subsequent drop/duplicate decision
        m = Machine(
            Torus((6, 6)),
            Storm(),
            faults=FaultModel(0.08, 0.03, rng=random.Random(42)),
            latency=2,
        )
        assert machine_digest(m, 60) == "75953611f8e8a1c0"

    def test_protected_clean_storm_pinned(self):
        # the virtualized clean-link reliability path must deliver the
        # same payloads on the same steps as the framed protocol did
        m = Machine(Torus((6, 6)), Storm(), reliability=True)
        assert machine_digest(m, 60) == "fa59d3a4d725030b"

    def test_traversal_flood_pinned(self):
        from repro.apps.traversal import run_traversal

        _, rep = run_traversal(Torus((8, 8)))
        digest = canon({
            "sent": rep.sent_total,
            "delivered": rep.delivered_total,
            "steps": rep.steps,
            "node": rep.node_delivered.tolist(),
        })
        assert digest == "863b1d14c4ec5b32"


class TestFigureParity:
    def test_figure5_quick_pinned(self):
        from repro.bench import QUICK, figure5_to_dict, run_figure5

        assert canon(figure5_to_dict(run_figure5(QUICK))) == "6af368b389c81da1"

    def test_figure4_quick_pinned(self):
        from repro.bench import QUICK, figure4_to_dict, run_figure4

        assert canon(figure4_to_dict(run_figure4(QUICK))) == "1bc9ec78f1de3dbd"
