"""Tests for trace recording and simulation reports (paper §V-C metrics)."""

import numpy as np
import pytest

from repro.netsim import SimulationReport, TraceRecorder, gini, spatial_entropy
from repro.netsim.trace import _payload_kind


class TestTraceRecorder:
    def test_initial_state(self):
        t = TraceRecorder(4)
        assert t.sent_total == 0
        assert t.first_activity_step is None

    def test_send_updates_counters(self):
        t = TraceRecorder(4)
        t.on_send(2, 5, "payload")
        assert t.sent_total == 1
        assert t.node_sent[2] == 1
        assert t.first_activity_step == 5
        assert t.last_activity_step == 5

    def test_external_sender_not_counted_per_node(self):
        t = TraceRecorder(4)
        t.on_send(-1, 0, "inject")
        assert t.sent_total == 1
        assert sum(t.node_sent) == 0

    def test_deliver_updates_counters(self):
        t = TraceRecorder(4)
        t.on_deliver_batch([3], 7)
        assert t.delivered_total == 1
        assert t.node_delivered[3] == 1
        assert t.last_activity_step == 7

    def test_payload_kind_counting(self):
        t = TraceRecorder(2)
        t.on_send(0, 0, None)
        t.on_send(0, 0, "text")
        t.on_send(0, 1, "more")
        assert t.payload_counts == {"empty": 1, "str": 2}

    def test_payload_kind_helper(self):
        assert _payload_kind(None) == "empty"
        assert _payload_kind(42) == "int"

    def test_step_end_series(self):
        t = TraceRecorder(2)
        t.on_step_end(0, 5, 2)
        t.on_step_end(1, 3, 1)
        assert t.dense()["queued_series"] == [5, 3]
        assert t.dense()["delivered_series"] == [2, 1]


class TestSimulationReport:
    def make_report(self):
        t = TraceRecorder(4)
        t.on_send(-1, -1, "trigger")
        for step, n in enumerate([0, 1, 2]):
            t.on_deliver_batch([n], step)
            t.on_step_end(step, 2 - step, 1)
        return SimulationReport(t, steps=3, quiescent=True)

    def test_computation_time(self):
        rep = self.make_report()
        assert rep.computation_time == 2 - (-1)

    def test_performance_inverse(self):
        rep = self.make_report()
        assert rep.performance == pytest.approx(1 / 3)

    def test_performance_infinite_when_zero(self):
        t = TraceRecorder(1)
        rep = SimulationReport(t, steps=0, quiescent=True)
        assert rep.performance == float("inf")

    def test_interconnect_activity_array(self):
        rep = self.make_report()
        assert rep.interconnect_activity.tolist() == [2, 1, 0]

    def test_node_activity_array(self):
        rep = self.make_report()
        assert rep.node_activity.tolist() == [1, 1, 1, 0]

    def test_peak_queued(self):
        rep = self.make_report()
        assert rep.peak_queued == 2

    def test_active_node_count(self):
        rep = self.make_report()
        assert rep.active_node_count == 3

    def test_summary_keys(self):
        s = self.make_report().summary()
        for key in ("steps", "computation_time", "performance", "sent",
                    "delivered", "peak_queued", "active_nodes"):
            assert key in s

    def test_heatmap_requires_topology(self):
        rep = self.make_report()
        with pytest.raises(ValueError):
            rep.heatmap()

    def test_heatmap_shape(self):
        from repro.netsim import FunctionalProgram, Machine
        from repro.topology import Torus

        def receive(node, state, sender, msg, send, neighbours):
            pass

        m = Machine(Torus((3, 4)), FunctionalProgram(None, receive))
        m.inject(5, "x")
        rep = m.run()
        grid = rep.heatmap()
        assert grid.shape == (3, 4)
        assert grid.sum() == 1
        assert grid[Torus((3, 4)).coords(5)] == 1


class TestSpatialMetrics:
    def test_entropy_uniform(self):
        assert spatial_entropy([1, 1, 1, 1]) == pytest.approx(2.0)

    def test_entropy_concentrated(self):
        assert spatial_entropy([10, 0, 0, 0]) == pytest.approx(0.0)

    def test_entropy_empty(self):
        assert spatial_entropy([]) == 0.0
        assert spatial_entropy([0, 0]) == 0.0

    def test_entropy_monotone_with_spread(self):
        assert spatial_entropy([4, 4, 4, 4]) > spatial_entropy([13, 1, 1, 1])

    def test_gini_uniform_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_gini_concentrated_near_one(self):
        assert gini([100] + [0] * 99) == pytest.approx(0.99, abs=0.01)

    def test_gini_empty(self):
        assert gini([]) == 0.0

    def test_gini_bounds(self):
        import random as _r

        r = _r.Random(0)
        for _ in range(20):
            counts = [r.randrange(50) for _ in range(30)]
            g = gini(counts)
            assert 0.0 <= g <= 1.0


def test_importing_the_package_leaves_numpy_unloaded():
    # numpy loads with the first report: the CLI and the fuzzer start without it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = "import sys, repro.conformance, repro.cli; print('numpy' in sys.modules)"
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert proc.stdout.strip() == "False"
