"""Tests for the layer-3 work-sharing extension (paper Figure 2)."""

import pytest

from repro import HyperspaceStack
from repro.apps.fib import fib, sequential_fib
from repro.apps.sumrec import calculate_sum
from repro.errors import MappingError
from repro.mapping import MappingService, queue_depth_load
from repro.recursion import RecursionEngine
from repro.topology import Ring, Torus


class TestConfiguration:
    def test_share_needs_load_fn(self):
        with pytest.raises(MappingError):
            MappingService(
                RecursionEngine(fib), "rr", share_threshold=2
            )

    def test_invalid_threshold(self):
        with pytest.raises(MappingError):
            MappingService(
                RecursionEngine(fib),
                "rr",
                share_threshold=0,
                load_fn=queue_depth_load,
            )

    def test_stack_rejects_bad_share_load(self):
        with pytest.raises(MappingError, match="share_load"):
            HyperspaceStack(Ring(4), share_load="vibes")


class TestCorrectnessUnderSharing:
    @pytest.mark.parametrize("share_load", ["queue", "invocations"])
    @pytest.mark.parametrize("threshold", [1, 2, 5])
    def test_fib_result_unchanged(self, share_load, threshold):
        stack = HyperspaceStack(
            Torus((4, 4)), share_threshold=threshold, share_load=share_load, seed=3
        )
        result, report = stack.run_recursive(fib, 11, halt_on_result=False)
        assert result == sequential_fib(11)
        assert report.quiescent

    def test_sum_on_tiny_machine(self):
        stack = HyperspaceStack(Ring(3), share_threshold=1)
        result, _ = stack.run_recursive(calculate_sum, 25)
        assert result == 325

    def test_sat_verdict_unchanged(self, small_sat_suite):
        from repro.apps.sat import SatProblem, make_solve_sat

        cnf = small_sat_suite[0]
        for threshold in (None, 3):
            stack = HyperspaceStack(Torus((5, 5)), share_threshold=threshold, seed=3)
            raw, _ = stack.run_recursive(make_solve_sat(), SatProblem(cnf))
            assert raw is not None


class TestSharingBehaviour:
    def test_aggressive_sharing_adds_forwarding_traffic(self):
        def run(threshold):
            stack = HyperspaceStack(
                Torus((4, 4)), share_threshold=threshold, seed=1
            )
            _, report = stack.run_recursive(fib, 11, halt_on_result=False)
            return report

        baseline = run(None)
        shared = run(1)
        assert shared.sent_total > baseline.sent_total

    def test_detour_is_bounded(self):
        # even with threshold 1 on a saturated ring the run terminates —
        # the MAX_SHARE_HOPS cap prevents work from bouncing forever
        stack = HyperspaceStack(Ring(4), share_threshold=1, seed=1)
        result, report = stack.run_recursive(fib, 9, halt_on_result=False)
        assert result == 34
        assert report.quiescent

    def test_replies_still_reach_issuer_through_detours(self):
        # deep linear recursion: every reply must retrace a (possibly
        # detoured) path; any routing bug would deadlock the run
        stack = HyperspaceStack(Torus((3, 3)), share_threshold=1, seed=2)
        result, report = stack.run_recursive(calculate_sum, 30)
        assert result == 465

    def test_queue_depth_load_probe(self):
        # probe reads the machine's real inbox depth
        observed = []

        def probing_load(pctx, app_state):
            observed.append(queue_depth_load(pctx, app_state))
            return 0  # never actually share

        from repro.netsim import Machine
        from repro.sched import SchedulerProgram

        engine = RecursionEngine(fib)
        service = MappingService(
            engine,
            "rr",
            share_threshold=10**9,
            load_fn=probing_load,
            halt_on_result=True,
        )
        sched = SchedulerProgram([service])
        machine = Machine(Torus((3, 3)), sched)
        machine.inject(0, 6)
        machine.run()
        assert observed  # probe ran
        assert all(isinstance(v, int) and v >= 0 for v in observed)
