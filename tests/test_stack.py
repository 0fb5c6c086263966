"""Tests for the assembled HyperspaceStack."""

import pytest

from repro import HyperspaceStack, Torus
from repro.apps.sumrec import calculate_sum
from repro.errors import SimulationError
from repro.mapping import LeastBusyNeighbourMapper
from repro.recursion import Call, Result, Sync
from repro.topology import Ring


class TestConfiguration:
    def test_mapper_by_name(self):
        stack = HyperspaceStack(Ring(5), mapper="lbn")
        result, _ = stack.run_recursive(calculate_sum, 5)
        assert result == 15

    def test_mapper_must_be_a_registry_name(self):
        from repro.errors import MappingError

        for mapper in (LeastBusyNeighbourMapper, lambda: LeastBusyNeighbourMapper(), "banana"):
            with pytest.raises(MappingError, match="unknown mapper .*; expected one of"):
                HyperspaceStack(Ring(5), mapper=mapper)

    @pytest.mark.parametrize("seed", [2.5, True, "1"], ids=repr)
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(SimulationError, match=f"seed must be an int, got {seed!r}"):
            HyperspaceStack(Ring(5), seed=seed)

    def test_status_by_threshold(self):
        stack = HyperspaceStack(Ring(5), mapper="lbn", status=2)
        result, _ = stack.run_recursive(calculate_sum, 5)
        assert result == 15

    @pytest.mark.parametrize("status", [2.5, True, "8", 0], ids=repr)
    def test_status_must_be_none_or_int(self, status):
        # 2.5 died with "'float' object is not callable"; True ran as 1
        from repro.errors import MappingError

        with pytest.raises(
            MappingError,
            match=f"status must be None or an int >= 1, got {status!r}",
        ):
            HyperspaceStack(Ring(4), status=status)

    def test_unknown_mapper_rejected(self):
        from repro.errors import MappingError

        with pytest.raises(MappingError):
            HyperspaceStack(Ring(5), mapper="teleport")

    def test_scheduler_budget(self):
        stack = HyperspaceStack(Ring(5), scheduler_budget=1)
        result, _ = stack.run_recursive(calculate_sum, 8)
        assert result == 36

    def test_queue_policy_lifo(self):
        stack = HyperspaceStack(Torus((4, 4)), queue_policy="lifo")
        result, _ = stack.run_recursive(calculate_sum, 10)
        assert result == 55


class TestStackRun:
    def test_last_run_populated(self):
        stack = HyperspaceStack(Ring(4))
        assert stack.last_run is None
        stack.run_recursive(calculate_sum, 4)
        run = stack.last_run
        assert run is not None
        assert run.result == 10
        assert run.results == [10]
        assert run.engine_stats.invocations == 5

    def test_report_has_topology_heatmap(self):
        stack = HyperspaceStack(Torus((3, 3)))
        _, report = stack.run_recursive(calculate_sum, 4)
        assert report.heatmap().shape == (3, 3)

    def test_trigger_node_choice(self):
        stack = HyperspaceStack(Torus((4, 4)))
        result, _ = stack.run_recursive(calculate_sum, 6, trigger_node=9)
        assert result == 21
        # results live at the trigger node
        assert stack.last_run.results == [21]

    def test_record_queue_depths(self):
        stack = HyperspaceStack(Ring(4), record_queue_depths=True)
        _, report = stack.run_recursive(calculate_sum, 5)
        assert report.queue_depths is not None
        assert report.queue_depths.shape[1] == 4

    def test_machines_are_independent_across_runs(self):
        stack = HyperspaceStack(Ring(4))
        r1, _ = stack.run_recursive(calculate_sum, 3)
        r2, _ = stack.run_recursive(calculate_sum, 4)
        assert (r1, r2) == (6, 10)


class TestHaltSemantics:
    @staticmethod
    def speculative(task):
        if task == "root":
            yield [lambda r: r == "fast", Call("fast"), Call(("slow", 15))]
            got = yield Sync()
            yield Result(got)
        elif task == "fast":
            yield Result("fast")
        else:
            _, n = task
            if n == 0:
                yield Result("slow")
            else:
                yield Call(("slow", n - 1))
                sub = yield Sync()
                yield Result(sub)

    def test_halt_on_result_stops_before_quiescence(self):
        stack = HyperspaceStack(Torus((4, 4)))
        _, fast_report = stack.run_recursive(self.speculative, "root")
        _, drain_report = stack.run_recursive(
            self.speculative, "root", halt_on_result=False
        )
        assert fast_report.steps < drain_report.steps
        assert drain_report.quiescent

    def test_drain_mode_reaches_quiescence(self):
        stack = HyperspaceStack(Torus((4, 4)))
        result, report = stack.run_recursive(
            self.speculative, "root", halt_on_result=False
        )
        assert result == "fast"
        assert report.quiescent


class TestRunTicketed:
    def test_results_and_report(self):
        from repro.mapping import TicketedFunctionalApp

        def receive(state, ticket, msg, send):
            if msg == "go":
                send("work")
            elif ticket is not None and msg == "work":
                send("answer", ticket)
            return state

        # the trigger node's reply handle is None -> external result
        def receive_root_aware(state, ticket, msg, send):
            if msg == "go":
                state = {"root_ticket": send("work")}
            elif msg == "work":
                send("answer", ticket)
            elif msg == "answer":
                send(("final", msg), None)
            return state

        stack = HyperspaceStack(Ring(5))
        results, report = stack.run_ticketed(
            TicketedFunctionalApp(receive_root_aware), "go"
        )
        assert results == [("final", "answer")]
        assert report.quiescent
