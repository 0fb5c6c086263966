"""Cross-layer integration: full-stack event capture and on/off equivalence."""

import random

import pytest

from repro.apps.sat import uf20_91_suite
from repro.apps.sumrec import calculate_sum
from repro.engine import RunSpec, execute
from repro.errors import SpecError
from repro.netsim import EMPTY_MSG, Machine
from repro.netsim.faults import FaultModel
from repro.stack import HyperspaceStack
from repro.telemetry import EventLog, TelemetryBus, resolve_workload
from repro.topology import Torus


def sat_spec(cnf, **knobs):
    return RunSpec(workload="sat", workload_params=cnf.to_params(), **knobs)


@pytest.fixture(scope="module")
def sumrec_log():
    bus = TelemetryBus()
    log = bus.attach(EventLog())
    stack = HyperspaceStack(Torus((6, 6)), mapper="lbn", telemetry=bus)
    result, report = stack.run_recursive(calculate_sum, 30)
    return result, report, log


class TestStackWiring:
    def test_layers_one_to_four_emit(self, sumrec_log):
        _, _, log = sumrec_log
        assert log.layers() == [1, 2, 3, 4]

    def test_result_unchanged(self, sumrec_log):
        result, _, _ = sumrec_log
        assert result == sum(range(31))

    def test_l1_send_deliver_counts_match_report(self, sumrec_log):
        _, report, log = sumrec_log
        assert log.count("send", layer=1) == report.sent_total
        assert log.count("deliver", layer=1) == report.delivered_total

    def test_l3_ticket_lifecycle_balances(self, sumrec_log):
        _, _, log = sumrec_log
        # no forwarding configured: every issued ticket is claimed once and
        # answered once
        issued = log.count("ticket_issue", layer=3)
        assert issued > 0
        assert log.count("ticket_claim", layer=3) == issued
        assert log.count("reply_delivered", layer=3) == issued

    def test_l4_invocation_spans_carry_duration(self, sumrec_log):
        _, _, log = sumrec_log
        spans = log.by_name("invocation", layer=4)
        assert spans and all(e.dur is not None and e.dur >= 0 for e in spans)

    def test_queued_counter_is_machine_wide(self, sumrec_log):
        _, _, log = sumrec_log
        assert all(e.node == -1 for e in log.by_name("queued", layer=1))

    def test_stack_telemetry_true_builds_a_bus(self):
        stack = HyperspaceStack(Torus((4, 4)), telemetry=True)
        assert isinstance(stack.telemetry, TelemetryBus)
        log = stack.telemetry.attach(EventLog())
        stack.run_recursive(calculate_sum, 5)
        assert log.layers() == [1, 2, 3, 4]


class TestAllFiveLayers:
    def test_sat_run_covers_every_layer_with_probes(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        cnf = uf20_91_suite(1, seed=5)[0]
        res = execute(
            sat_spec(cnf, mapper="lbn", status=8, seed=5),
            topology=Torus((6, 6)),
            telemetry=bus,
        )
        assert cnf.is_satisfied_by(dict(res.verdict["assignment"]))
        assert log.layers() == [1, 2, 3, 4, 5]
        probes = log.by_layer(5)
        assert {e.name for e in probes} <= {"dpll.branch", "dpll.backtrack"}
        assert any(e.name == "dpll.branch" for e in probes)
        # probes are attributed to real executing nodes, not the default -1
        assert all(e.node >= 0 for e in probes)

    def test_probe_state_uninstalled_after_run(self):
        from repro.telemetry import active_probe_bus

        bus = TelemetryBus()
        stack = HyperspaceStack(Torus((4, 4)), telemetry=bus)
        stack.run_recursive(calculate_sum, 5)
        assert active_probe_bus() is None


class TestTelemetryOnOffEquivalence:
    """Telemetry must observe, never perturb."""

    def test_sat_results_identical(self):
        cnf = uf20_91_suite(1, seed=11)[0]

        def run(bus):
            res = execute(
                sat_spec(cnf, mapper="lbn", status=8, seed=11),
                topology=Torus((6, 6)),
                telemetry=bus,
            )
            return (
                res.verdict["sat"],
                res.verdict["assignment"],
                res.report.summary(),
                res.engine_stats.as_dict(),
            )

        assert run(None) == run(TelemetryBus())

    def test_sumrec_reports_identical(self):
        def run(bus):
            stack = HyperspaceStack(
                Torus((5, 5)), mapper="rr", seed=2, telemetry=bus
            )
            result, report = stack.run_recursive(calculate_sum, 20)
            return result, report.summary()

        assert run(None) == run(TelemetryBus())


class TestDropAccounting:
    class _Fwd:
        def init(self, ctx):
            pass

        def on_message(self, ctx, sender, payload):
            ctx.send(ctx.neighbours[0], payload)

    def test_fault_drops_attributed_to_nodes(self):
        bus = TelemetryBus()
        log = bus.attach(EventLog())
        m = Machine(
            Torus((4, 4)),
            self._Fwd(),
            faults=FaultModel(drop_probability=0.5, rng=random.Random(1)),
            telemetry=bus,
        )
        m.inject(0, EMPTY_MSG)
        rep = m.run(max_steps=200)
        drops = log.by_name("drop", layer=1)
        assert drops and all(e.attrs["reason"] == "fault" for e in drops)
        assert rep.dropped_total == len(drops) == int(rep.node_dropped.sum())

    def test_on_drop_counts_against_the_destination(self):
        from repro.netsim.trace import TraceRecorder

        rec = TraceRecorder(4)
        rec.on_drop(2, 5)
        assert rec.dropped_total == 1
        assert rec.node_dropped == [0, 0, 1, 0]
        assert rec.first_activity_step == rec.last_activity_step == 5


class TestWorkloadResolution:
    def test_registry_names_resolve_to_themselves(self):
        for name in ("sat", "sumrec", "fib", "nqueens", "traversal"):
            assert resolve_workload(name) == name

    def test_every_example_script_resolves(self):
        import pathlib

        examples = pathlib.Path(__file__).resolve().parents[2] / "examples"
        scripts = sorted(examples.glob("*.py"))
        assert scripts, "examples/ directory is missing"
        for script in scripts:
            key = resolve_workload(str(script))
            assert key in ("sat", "sumrec", "fib", "nqueens", "traversal")

    def test_unknown_workload_raises(self):
        with pytest.raises(SpecError, match="unknown trace workload"):
            resolve_workload("nope")
