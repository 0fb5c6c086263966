"""Full-stack chaos: DPLL solves over lossy links with reliable delivery.

The acceptance scenario from the robustness milestone: a uf20-91 suite on a
4x4 torus with ``drop=0.05, duplicate=0.02`` must produce verdicts (and
verified models) identical to the fault-free run, with retransmission
counts visible in a telemetry metrics dump.
"""

import pytest

from repro.apps.sat import dpll_solve
from repro.engine import RunSpec, execute
from repro.reliability import ReliabilityConfig
from repro.telemetry import TelemetryBus
from repro.telemetry.metrics import MetricsSubscriber
from repro.topology import Ring, Torus

DROP, DUP = 0.05, 0.02


def sat_spec(cnf, **knobs):
    return RunSpec(workload="sat", workload_params=cnf.to_params(), **knobs)


class TestAcceptance:
    def test_uf20_suite_on_torus_verdict_parity(self, small_sat_suite):
        for i, cnf in enumerate(small_sat_suite):
            reference = execute(
                sat_spec(cnf, mapper="lbn", seed=7), topology=Torus((4, 4)),
            )
            chaotic = execute(
                sat_spec(
                    cnf,
                    mapper="lbn",
                    seed=7,
                    drop=DROP,
                    duplicate=DUP,
                    reliable=True,
                ),
                topology=Torus((4, 4)),
            )
            seq = dpll_solve(cnf)
            assert (
                chaotic.verdict["sat"] == reference.verdict["sat"] == seq.satisfiable
            ), (
                f"instance {i}: verdict diverged under drop={DROP} dup={DUP}"
            )
            assert cnf.is_satisfied_by(dict(chaotic.verdict["assignment"]))
            assert chaotic.link_stats is not None
            assert chaotic.link_stats.exhausted == 0

    def test_retransmits_visible_in_metrics_dump(self, small_sat_suite):
        bus = TelemetryBus()
        metrics = bus.attach(MetricsSubscriber())
        res = execute(
            sat_spec(
                small_sat_suite[0],
                mapper="lbn",
                seed=7,
                drop=DROP,
                duplicate=DUP,
                reliable=True,
            ),
            topology=Torus((4, 4)),
            telemetry=bus,
        )
        dump = metrics.as_dict()
        assert res.link_stats.retransmits > 0, (
            "chaos run produced no retransmissions — fault rates too low "
            "to exercise the protocol"
        )
        assert dump["l1.retransmit"]["value"] == res.link_stats.retransmits
        hist = dump["l1.link_retries.steps"]
        assert hist["kind"] == "histogram"
        assert hist["sum"] == res.link_stats.retransmits
        assert hist["max"] <= ReliabilityConfig().retry_limit


class TestUnsatAndDeterminism:
    def test_unsat_verdict_survives_chaos(self, unsat_cnf):
        res = execute(
            sat_spec(
                unsat_cnf, seed=11, drop=0.1, duplicate=0.05, reliable=True,
            ),
            topology=Ring(6),
        )
        assert not res.verdict["sat"]

    def test_chaotic_solve_is_deterministic(self, tiny_cnf):
        def one():
            res = execute(
                sat_spec(
                    tiny_cnf,
                    mapper="lbn",
                    seed=13,
                    drop=0.08,
                    duplicate=0.04,
                    reliable=True,
                ),
                topology=Torus((3, 3)),
            )
            return (
                res.verdict["sat"],
                res.verdict["assignment"],
                res.report.computation_time,
                res.link_stats.as_dict(),
            )

        assert one() == one() == one()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_seed_sweep_terminates_and_verifies(self, tiny_cnf, seed):
        res = execute(
            sat_spec(
                tiny_cnf,
                seed=seed,
                drop=0.12,
                duplicate=0.06,
                reliable=True,
                max_steps=50_000,
            ),
            topology=Ring(5),
        )
        assert res.verdict["sat"]
        assert tiny_cnf.is_satisfied_by(dict(res.verdict["assignment"]))
        assert res.report.quiescent


class TestIdempotentResultHandling:
    """Layer 4 must tolerate the duplicates layer 1.5 cannot see.

    The protocol dedups at link level, but a retransmitted *work* message
    whose reply ticket is already registered would previously re-spawn the
    invocation.  ``dup_work`` counts the suppressed re-spawns.
    """

    def test_dup_work_counter_default_zero(self, tiny_cnf):
        res = execute(sat_spec(tiny_cnf, seed=3), topology=Ring(5))
        assert res.engine_stats.as_dict().get("dup_work", 0) == 0

    def test_chaotic_run_reports_engine_stats(self, tiny_cnf):
        res = execute(
            sat_spec(tiny_cnf, seed=3, drop=0.1, duplicate=0.08, reliable=True),
            topology=Ring(5),
        )
        st = res.engine_stats.as_dict()
        # link-level dedup means layer 4 should normally see no duplicates;
        # the invariant is that any it does see are suppressed, not crashed
        assert st["dup_work"] >= 0
        assert tiny_cnf.is_satisfied_by(dict(res.verdict["assignment"]))
