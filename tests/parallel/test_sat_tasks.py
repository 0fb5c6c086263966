"""Tests for SAT sweep tasks and end-to-end parallel determinism."""

import pickle

from repro.apps.sat import uf20_91_suite
from repro.bench import BenchPreset, figure4_to_dict, figure5_to_dict, run_figure4, run_figure5
from repro.engine import RunSpec, cnf_of, execute
from repro.parallel import run_sat_task, sat_cell, solve_sat_tasks
from repro.topology import Torus

#: small enough for CI, big enough to exercise every series
TINY = BenchPreset("tiny", 2, (9, 27))


class TestSatCell:
    def test_task_pickles(self):
        cnf = uf20_91_suite(1)[0]
        task = sat_cell(cnf, Torus((3, 3)), mapper="lbn", status=8, seed=3)
        clone = pickle.loads(pickle.dumps(task))
        spec = clone.spec
        assert cnf_of(spec.workload_params) == cnf
        assert clone.topology.n_nodes == 9
        assert spec.mapper == "lbn" and spec.status == 8 and spec.seed == 3

    def test_outcome_matches_direct_solve(self):
        cnf = uf20_91_suite(1)[0]
        task = sat_cell(cnf, Torus((4, 4)), simplify="none", seed=1)
        out = run_sat_task(task)
        spec = RunSpec(
            workload="sat", workload_params=cnf.to_params(), simplify="none", seed=1
        )
        res = execute(spec, topology=Torus((4, 4)))
        assert out.computation_time == res.report.computation_time
        assert out.sent_total == res.report.sent_total
        assert out.satisfiable == res.verdict["sat"]
        assert out.verified == cnf.is_satisfied_by(dict(res.verdict["assignment"]))
        assert out.activity is None and out.heatmap is None

    def test_collect_flags_ship_arrays(self):
        cnf = uf20_91_suite(1)[0]
        task = sat_cell(
            cnf, Torus((4, 4)), seed=1, collect_activity=True, collect_heatmap=True
        )
        out = run_sat_task(task)
        assert out.activity is not None and out.activity.sum() > 0
        assert out.heatmap is not None and out.heatmap.shape == (4, 4)

    def test_pool_matches_serial(self):
        problems = uf20_91_suite(3)
        tasks = [
            sat_cell(cnf, Torus((3, 3)), simplify="none", seed=i)
            for i, cnf in enumerate(problems)
        ]
        assert solve_sat_tasks(tasks, jobs=3) == solve_sat_tasks(tasks, jobs=1)


class TestSweepDeterminism:
    def test_figure4_identical_for_any_job_count(self):
        serial = run_figure4(TINY, jobs=1)
        pooled = run_figure4(TINY, jobs=4)
        assert figure4_to_dict(serial) == figure4_to_dict(pooled)

    def test_figure5_identical_for_any_job_count(self):
        serial = run_figure5(TINY, jobs=1)
        pooled = run_figure5(TINY, jobs=4)
        assert figure5_to_dict(serial) == figure5_to_dict(pooled)
