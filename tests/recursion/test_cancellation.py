"""Tests for speculative-subtree cancellation (layer-4 extension)."""

import pytest

from repro import HyperspaceStack
from repro.engine import RunSpec, execute
from repro.recursion import Call, Choice, Result, Sync
from repro.topology import Ring, Torus


def sat_spec(cnf, **knobs):
    return RunSpec(workload="sat", workload_params=cnf.to_params(), **knobs)


def speculative_app(depth):
    """Root races a fast leaf against a slow chain of ``depth`` subcalls."""

    def f(task):
        kind, n = task
        if kind == "root":
            yield Choice(
                lambda r: r is not None,
                Call(("fast", 0)),
                Call(("slow", n)),
            )
            got = yield Sync()
            yield Result(got)
        elif kind == "fast":
            yield Result("fast")
        else:  # slow chain
            if n == 0:
                yield Result(None)  # invalid: the fast branch must win
            else:
                yield Call(("slow", n - 1))
                sub = yield Sync()
                yield Result(sub)

    return f


class TestCancellation:
    def test_result_identical_with_and_without(self):
        for cancellation in (False, True):
            stack = HyperspaceStack(Torus((3, 3)), cancellation=cancellation)
            result, _ = stack.run_recursive(speculative_app(12), ("root", 12))
            assert result == "fast"

    def test_cancellation_reduces_drain_work(self):
        def run(cancellation):
            stack = HyperspaceStack(Torus((3, 3)), cancellation=cancellation)
            stack.run_recursive(
                speculative_app(20), ("root", 20), halt_on_result=False
            )
            return stack.last_run

        without = run(False)
        with_c = run(True)
        # A cancel message travels one hop per step, the same speed as the
        # expanding chain, so it cannot stop invocations from being created —
        # but it kills waiting invocations, whose replies are suppressed: the
        # machine drains in fewer steps and fewer invocations complete.  (On
        # a pure chain the cancel messages themselves roughly offset the
        # suppressed replies, so total traffic is about even; the SAT test
        # below shows the traffic win on branchy trees.)
        assert with_c.engine_stats.completions < without.engine_stats.completions
        assert with_c.report.steps < without.report.steps
        assert with_c.engine_stats.cancels_sent >= 1

    def test_cancel_stats_accounted(self):
        stack = HyperspaceStack(Torus((3, 3)), cancellation=True)
        stack.run_recursive(speculative_app(15), ("root", 15), halt_on_result=False)
        stats = stack.last_run.engine_stats
        assert stats.cancels_received >= 1

    def test_cancellation_cascades_down_chain(self):
        # a long chain on a small ring: the cancel must chase the chain
        stack = HyperspaceStack(Ring(4), cancellation=True)
        result, _ = stack.run_recursive(
            speculative_app(30), ("root", 30), halt_on_result=False
        )
        assert result == "fast"
        assert stack.last_run.report.quiescent

    def test_late_cancel_after_completion_is_noop(self):
        # the "slow" branch is actually fast here: cancel arrives after done
        def f(task):
            kind = task
            if kind == "root":
                yield Choice(lambda r: True, Call("a"), Call("b"))
                got = yield Sync()
                yield Result(got)
            else:
                yield Result(kind)

        stack = HyperspaceStack(Torus((3, 3)), cancellation=True)
        result, _ = stack.run_recursive(f, "root", halt_on_result=False)
        assert result in ("a", "b")
        assert stack.last_run.report.quiescent


class TestCancellationOnSat:
    def test_sat_verdict_unchanged_by_cancellation(self):
        from repro.apps.sat import uniform_random_ksat
        import random

        rng = random.Random(5)
        cnf = uniform_random_ksat(12, 48, 3, rng)
        base = execute(sat_spec(cnf, seed=3), topology=Torus((4, 4)))
        canc = execute(
            sat_spec(cnf, seed=3, cancellation=True), topology=Torus((4, 4)),
        )
        assert base.verdict["sat"] == canc.verdict["sat"]
        if base.verdict["sat"]:
            assert cnf.is_satisfied_by(dict(base.verdict["assignment"]))
            assert cnf.is_satisfied_by(dict(canc.verdict["assignment"]))

    def test_cancellation_drains_faster_on_sat(self):
        from repro.apps.sat import uf20_91_suite

        cnf = uf20_91_suite(1, seed=31)[0]
        base = execute(
            sat_spec(cnf, seed=3, simplify="none"), topology=Torus((6, 6)),
        )
        canc = execute(
            sat_spec(cnf, seed=3, simplify="none", cancellation=True),
            topology=Torus((6, 6)),
        )
        # Cancels chase the expanding frontier at the same one-hop-per-step
        # speed, so the traffic win is modest — but killed waiting
        # invocations stop forwarding replies, so the machine drains sooner.
        assert canc.report.computation_time < base.report.computation_time
        assert canc.engine_stats.completions < base.engine_stats.completions
