"""Full-stack sharded parity: uf20 on a 4x4 torus, every acceptance case.

The sharded backend must produce the same verdict, the same canonical run
digest and the same telemetry counters as the serial stack — under clean
links, under faulty links with the reliability protocol, and under the
LBN mapper — and a checkpoint taken at any shard count must resume at any
other with an identical semantic state digest.
"""

import random

import pytest

from repro.apps.sat import uf20_91_suite
from repro.conformance.workloads import comparable_metrics
from repro.engine import RunSpec, execute
from repro.errors import ApplicationError, SimulationError
from repro.netsim import ShardProgramSpec
from repro.netsim.digest import canonical_digest as canon
from repro.stack import HyperspaceStack
from repro.telemetry import EventLog, TelemetryBus
from repro.telemetry.metrics import MetricsSubscriber
from repro.topology import Torus

SCENARIOS = {
    "plain": dict(mapper="rr"),
    "faulty_reliable": dict(mapper="rr", drop=0.05, duplicate=0.02, reliable=True),
    "lbn": dict(mapper="lbn", status=4),
}


def sat_spec(cnf, **knobs):
    return RunSpec(workload="sat", workload_params=cnf.to_params(), **knobs)


def run_uf20(shards, **kw):
    cnf = uf20_91_suite(1, seed=99)[0]
    bus = TelemetryBus()
    sub = bus.attach(MetricsSubscriber())
    res = execute(
        sat_spec(cnf, simplify="none", seed=2017, shards=shards, **kw),
        topology=Torus((4, 4)),
        telemetry=bus,
    )
    rep = res.report
    digest = canon({
        "sat": res.verdict["sat"],
        "assignment": res.verdict["assignment"] or None,
        "sent": rep.sent_total,
        "delivered": rep.delivered_total,
        "queued": rep.queued_series.tolist(),
        "steps": rep.steps,
    })
    stats = {s: getattr(res.engine_stats, s) for s in res.engine_stats.__slots__}
    return digest, stats, comparable_metrics(sub)


@pytest.fixture(scope="module")
def serial_baselines():
    return {name: run_uf20(1, **kw) for name, kw in SCENARIOS.items()}


class TestStackParity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("shards", [2, 4])
    def test_digest_stats_and_counters_match_serial(
        self, serial_baselines, scenario, shards
    ):
        want_digest, want_stats, want_metrics = serial_baselines[scenario]
        digest, stats, metrics = run_uf20(shards, **SCENARIOS[scenario])
        assert digest == want_digest
        assert stats == want_stats
        assert metrics == want_metrics


class TestRelayedEvents:
    def test_coordinator_event_log_has_every_worker_event_after_run(self):
        # nothing may stay behind in a worker's ring (its last partial
        # batch) or in the coordinator's once run() has returned
        def events(**knobs):
            cnf = uf20_91_suite(1, seed=99)[0]
            bus = TelemetryBus()
            log = bus.attach(EventLog())
            execute(
                sat_spec(cnf, mapper="lbn", status=4, simplify="none",
                         seed=2017, **knobs),
                topology=Torus((4, 4)),
                telemetry=bus,
            )
            assert len(log) == bus.events_emitted
            return sorted(canon(event.as_dict()) for event in log.events)

        serial = events()
        assert len(serial) > 1000
        assert events(shards=2, shard_backend="process") == serial


class TestComparableMetrics:
    def test_only_a_gauges_last_value_is_relaxed(self):
        bus = TelemetryBus()
        sub = bus.attach(MetricsSubscriber())
        bus.emit(2, "run_queue", 0, 1, attrs={"value": 3})
        bus.emit(2, "run_queue", 0, 2, attrs={"value": 1})
        bus.emit(4, "invocation", 0, 1, dur=5)
        bus.count(1, "shard_count", 2)
        bus.flush()
        full = sub.as_dict()
        assert comparable_metrics(sub) == {
            "l2.run_queue": full["l2.run_queue"],
            "l2.run_queue.level": {
                "kind": "gauge", "peak": 3, "low": 1, "updates": 2,
            },
            "l4.invocation": full["l4.invocation"],
            "l4.invocation.steps": full["l4.invocation.steps"],
        }
        assert full["l2.run_queue.level"]["value"] == 1


def solve_ckpt(shards, resume_from=None, capture=None):
    cnf = uf20_91_suite(1, seed=99)[0]
    spec = sat_spec(cnf, mapper="rr", simplify="none", seed=2017, shards=shards,
                    checkpoint_every=50)
    sink = capture.append if capture is not None else (lambda c: None)
    return execute(spec, topology=Torus((4, 4)), checkpoint_sink=sink,
                   resume_from=resume_from)


class TestCheckpointAcrossShardCounts:
    def test_sharded_checkpoint_resumes_anywhere(self):
        serial_snaps = []
        ref = solve_ckpt(1, capture=serial_snaps)
        assert serial_snaps and ref.state_digest is not None

        sharded_snaps = []
        sharded = solve_ckpt(4, capture=sharded_snaps)
        # checkpointing sharded produces the same final digest...
        assert sharded.state_digest == ref.state_digest
        # ...and the same intermediate checkpoints as the serial run
        assert [c.state_digest for c in sharded_snaps] == [
            c.state_digest for c in serial_snaps
        ]

        # every direction of the shard-count hop lands on the reference
        for resume_shards, ckpt in [
            (1, sharded_snaps[0]),   # sharded -> serial
            (4, serial_snaps[0]),    # serial -> sharded
            (2, sharded_snaps[0]),   # 4 shards -> 2 shards
        ]:
            resumed = solve_ckpt(resume_shards, resume_from=ckpt)
            assert resumed.state_digest == ref.state_digest
            assert resumed.verdict["sat"] == ref.verdict["sat"]


class TestShardingGuards:
    def test_work_sharing_rejected(self):
        with pytest.raises(SimulationError, match="share"):
            HyperspaceStack(Torus((4, 4)), share_threshold=3, shards=2)

    def test_run_ticketed_rejected(self):
        stack = HyperspaceStack(Torus((4, 4)), shards=2)
        with pytest.raises(SimulationError, match="serial"):
            stack.run_ticketed(object(), None)

    def test_random_heuristic_rejected(self):
        cnf = uf20_91_suite(1, seed=99)[0]
        with pytest.raises(ApplicationError, match="random"):
            execute(
                sat_spec(cnf, heuristic="random", shards=2), topology=Torus((4, 4)),
            )

    def test_recipe_as_fn_threads_through_run_recursive(self):
        # run_recursive takes a picklable recipe as fn for closures
        from repro.apps.sat import make_solve_sat
        from repro.apps.sat.distributed import SatProblem

        cnf = uf20_91_suite(1, seed=99)[0]
        stack = HyperspaceStack(Torus((4, 4)), mapper="rr", seed=2017, shards=2)
        spec = ShardProgramSpec(make_solve_sat, simplify="none")
        result, report = stack.run_recursive(
            spec, SatProblem(cnf), halt_on_result=False
        )
        assert result is not None
        assert report.steps > 0
