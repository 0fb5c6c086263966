"""Edge-case and error-path tests across layers."""

import pytest

from repro import HyperspaceStack
from repro.apps.sat import CNF
from repro.errors import (
    MappingError,
    RecursionLayerError,
    SimulationError,
    TopologyError,
)
from repro.mapping import MappingService
from repro.netsim import FunctionalProgram, Machine
from repro.recursion import RecursionEngine, Result
from repro.topology import Ring, Torus


class TestMachineEdges:
    def test_poll_requires_on_step_hook(self):
        prog = FunctionalProgram(None, lambda *a: None)
        m = Machine(Ring(4), prog)
        with pytest.raises(SimulationError):
            m.request_poll(0)

    def test_poll_invalid_node(self):
        class WithStep:
            def init(self, ctx):
                ctx.state = None

            def on_message(self, ctx, sender, payload):
                pass

            def on_step(self, ctx):
                pass

        m = Machine(Ring(4), WithStep())
        with pytest.raises(TopologyError):
            m.request_poll(9)

    def test_halt_before_run(self):
        m = Machine(Ring(4), FunctionalProgram(None, lambda *a: None))
        m.inject(0, "x")
        m.halt()
        report = m.run()
        assert report.steps == 0
        assert not report.quiescent  # the injected message was never handled

    def test_queue_depth_of_invalid_node(self):
        m = Machine(Ring(4), FunctionalProgram(None, lambda *a: None))
        with pytest.raises(TopologyError):
            m.queue_depth_of(4)

    def test_queue_depth_reflects_backlog(self):
        m = Machine(Ring(4), FunctionalProgram(None, lambda *a: None))
        for _ in range(3):
            m.inject(2, "x")
        assert m.queue_depth_of(2) == 3
        m.step()
        assert m.queue_depth_of(2) == 2

    def test_report_before_any_step(self):
        m = Machine(Ring(4), FunctionalProgram(None, lambda *a: None))
        rep = m.report()
        assert rep.steps == 0
        assert rep.computation_time == 0


class TestStateAccessorGuards:
    def test_mapping_accessors_reject_foreign_state(self):
        with pytest.raises(MappingError):
            MappingService.results_of({"not": "map state"})
        with pytest.raises(MappingError):
            MappingService.app_state_of(42)
        with pytest.raises(MappingError):
            MappingService.view_of(None)

    def test_engine_accessors_reject_foreign_state(self):
        with pytest.raises(RecursionLayerError):
            RecursionEngine.stats_of("nope")
        with pytest.raises(RecursionLayerError):
            RecursionEngine.live_invocations_of("nope")

    def test_engine_load_probe_tolerates_foreign_state(self):
        # load probes may be polled before init completes; must not raise
        assert RecursionEngine.load_probe(None, "anything") == 0


class TestCnfTrustedConstructor:
    def test_assign_output_usable_everywhere(self):
        cnf = CNF([(1, 2), (-1, 3)]).assign(1)
        # a derived formula (table plus assignment) supports the full public API
        assert cnf.evaluate({3: True}) in (True, None)
        assert cnf.stats()["num_clauses"] == 1


class TestStackEdges:
    def test_zero_work_application(self):
        def instant(x):
            yield Result(x)

        stack = HyperspaceStack(Ring(4))
        result, report = stack.run_recursive(instant, "done")
        assert result == "done"
        # trigger + nothing else: one delivery
        assert report.delivered_total == 1

    def test_single_node_machine_rejected_for_calls(self):
        from repro.recursion import Call, Sync

        def delegating(x):
            yield Call(x)
            _ = yield Sync()
            yield Result(None)

        stack = HyperspaceStack(Ring(1))
        with pytest.raises(MappingError):
            stack.run_recursive(delegating, 1)

    def test_trigger_node_out_of_range(self):
        def instant(x):
            yield Result(x)

        stack = HyperspaceStack(Ring(4))
        with pytest.raises(TopologyError):
            stack.run_recursive(instant, 1, trigger_node=7)
