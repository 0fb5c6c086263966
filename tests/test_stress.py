"""Stress tests: large machines, deep recursions, long runs.

Sized to stay within a few seconds each while exercising regimes the unit
tests do not: thousand-node machines, recursion depth in the hundreds, and
machine reuse across many runs.
"""

import pytest

from repro import HyperspaceStack
from repro.apps.sumrec import calculate_sum, closed_form_sum
from repro.apps.traversal import run_traversal, visited_nodes
from repro.engine import RunSpec, execute
from repro.recursion import Call, Result, Sync
from repro.topology import FullyConnected, Hypercube, Ring, Torus


def sat_spec(cnf, **knobs):
    return RunSpec(workload="sat", workload_params=cnf.to_params(), **knobs)


class TestLargeMachines:
    def test_traversal_2500_node_torus(self):
        topo = Torus((50, 50))
        machine, report = run_traversal(topo)
        assert len(visited_nodes(machine)) == 2500
        assert report.sent_total == 1 + 4 * 2500

    def test_traversal_1024_node_hypercube(self):
        topo = Hypercube(10)
        machine, report = run_traversal(topo)
        assert len(visited_nodes(machine)) == 1024
        # wavefront bounded by diameter + drain of duplicates
        assert report.steps <= 10 + 10 + 1

    def test_sat_on_1024_node_hypercube(self, small_sat_suite):
        res = execute(
            sat_spec(small_sat_suite[0], mapper="lbn", seed=1, simplify="none"),
            topology=Hypercube(10),
        )
        assert res.verdict["sat"]
        assert small_sat_suite[0].is_satisfied_by(dict(res.verdict["assignment"]))

    def test_sat_on_1000_node_fully_connected(self, small_sat_suite):
        res = execute(
            sat_spec(
                small_sat_suite[0], mapper="random", seed=1, simplify="none",
            ),
            topology=FullyConnected(1000),
        )
        assert res.verdict["sat"]
        assert small_sat_suite[0].is_satisfied_by(dict(res.verdict["assignment"]))


class TestDeepRecursion:
    def test_depth_300_linear_recursion_on_tiny_ring(self):
        stack = HyperspaceStack(Ring(3))
        result, report = stack.run_recursive(calculate_sum, 300)
        assert result == closed_form_sum(300)
        assert report.quiescent or report.steps > 0

    def test_wide_fanout_single_level(self):
        def scatter(task):
            if task == "root":
                for i in range(200):
                    yield Call(i)
                results = yield Sync()
                yield Result(sum(results))
            else:
                yield Result(task)

        stack = HyperspaceStack(Torus((6, 6)))
        result, _ = stack.run_recursive(scatter, "root")
        assert result == sum(range(200))

    def test_many_runs_reuse_stack(self):
        stack = HyperspaceStack(Torus((4, 4)))
        for n in range(0, 60, 7):
            result, _ = stack.run_recursive(calculate_sum, n)
            assert result == closed_form_sum(n)


class TestThroughputSanity:
    def test_simulator_delivers_fast_enough(self):
        """Guard against pathological slowdowns: the 2500-node flood fill
        (10k deliveries) must finish well under a second of wall time."""
        import time

        topo = Torus((50, 50))
        t0 = time.perf_counter()
        run_traversal(topo)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0  # generous CI margin; typically ~0.05s
