"""Cross-layer integration tests: the full stack on realistic workloads."""

import pytest

from repro import HyperspaceStack
from repro.apps.sat import dpll_solve
from repro.engine import RunSpec, execute
from repro.mapping import MappingService
from repro.topology import FullyConnected, Hypercube, Torus


def sat_spec(cnf, **knobs):
    return RunSpec(workload="sat", workload_params=cnf.to_params(), **knobs)


class TestFullSatPipeline:
    def test_suite_solves_and_verifies_everywhere(self, small_sat_suite):
        for cnf in small_sat_suite:
            seq = dpll_solve(cnf)
            for topo in (Torus((6, 6)), Hypercube(5), FullyConnected(30)):
                res = execute(sat_spec(cnf, seed=5), topology=topo)
                assert res.verdict["sat"] == seq.satisfiable
                assert cnf.is_satisfied_by(dict(res.verdict["assignment"]))

    def test_profiling_artifacts_consistent(self, small_sat_suite):
        res = execute(
            sat_spec(
                small_sat_suite[0],
                seed=5,
                simplify="none",
                record_queue_depths=True,
            ),
            topology=Torus((6, 6)),
        )
        rep = res.report
        # queue-depth matrix row sums must match the queued series
        assert rep.queue_depths is not None
        assert (rep.queue_depths.sum(axis=1) == rep.queued_series).all()
        # node activity sums to total deliveries
        assert rep.node_activity.sum() == rep.delivered_total
        # drain mode: sent == delivered, final queue empty
        assert rep.sent_total == rep.delivered_total
        assert rep.queued_series[-1] == 0

    def test_engine_stats_balance(self, small_sat_suite):
        res = execute(sat_spec(small_sat_suite[0], seed=5), topology=Torus((5, 5)))
        stats = res.engine_stats
        assert stats.completions <= stats.invocations
        # every choice group either won or exhausted (drain mode: all settle)
        assert stats.choice_wins + stats.choice_exhausted <= stats.choice_groups

    def test_root_result_at_trigger_node(self, small_sat_suite):
        cnf = small_sat_suite[0]
        stack = HyperspaceStack(Torus((4, 4)))
        from repro.apps.sat import SatProblem, make_solve_sat

        raw, _ = stack.run_recursive(
            make_solve_sat(), SatProblem(cnf), trigger_node=7
        )
        assert raw is not None
        state = stack.last_run.scheduler.process_state(stack.last_run.machine, 7)
        assert MappingService.results_of(state) == [raw]


class TestLayerInterchangeability:
    """Paper §III-B1: swapping one layer's implementation leaves the
    application untouched and the answer unchanged."""

    def test_swap_mapper(self, small_sat_suite):
        cnf = small_sat_suite[1]
        verdicts = set()
        for mapper in ("rr", "lbn", "random", "hint"):
            res = execute(
                sat_spec(cnf, mapper=mapper, seed=1), topology=Torus((4, 4)),
            )
            verdicts.add(res.verdict["sat"])
        assert verdicts == {True}

    def test_swap_topology(self, small_sat_suite):
        cnf = small_sat_suite[1]
        for topo in (Torus((3, 3)), Torus((2, 2, 2)), Hypercube(4)):
            assert execute(sat_spec(cnf, seed=1), topology=topo).verdict["sat"]

    def test_swap_queue_policy(self, small_sat_suite):
        cnf = small_sat_suite[2]
        for policy in ("fifo", "lifo", "random"):
            res_stack = HyperspaceStack(
                Torus((4, 4)), queue_policy=policy, seed=3
            )
            from repro.apps.sat import SatProblem, make_solve_sat

            raw, _ = res_stack.run_recursive(make_solve_sat(), SatProblem(cnf))
            assert raw is not None


class TestScalabilityDirection:
    def test_more_cores_help_saturated_workload(self, small_sat_suite):
        cnf = small_sat_suite[0]
        small = execute(
            sat_spec(cnf, seed=1, simplify="none"), topology=Torus((3, 3)),
        )
        large = execute(
            sat_spec(cnf, seed=1, simplify="none"), topology=Torus((10, 10)),
        )
        assert large.report.computation_time < small.report.computation_time

    def test_workload_is_machine_independent(self, small_sat_suite):
        # total application messages (tree size) should not depend on the
        # machine for static RR mapping
        cnf = small_sat_suite[0]
        a = execute(sat_spec(cnf, seed=1, simplify="none"), topology=Torus((3, 3)))
        b = execute(
            sat_spec(cnf, seed=1, simplify="none"), topology=Torus((12, 12)),
        )
        assert a.report.sent_total == b.report.sent_total
