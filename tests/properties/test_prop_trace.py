"""The gap-recording trace reads exactly like one that appends zeros.

``TraceRecorder.on_empty_steps(n)`` records one gap instead of ``n``
zero entries per series.  Whatever the sequence of executed steps, gaps
and dense-snapshot restores, the spelled-out series (``dense()``,
``snapshot()`` and the report's arrays) must equal those of the
reference recorder below, which keeps the old zero-appending form.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.netsim import SimulationReport, TraceRecorder

N_NODES = 3

#: trace snapshot keys, in the order checkpoints have always written them
SNAPSHOT_KEYS = [
    "n_nodes", "queued_series", "delivered_series", "node_delivered",
    "node_sent", "node_dropped", "sent_total", "delivered_total",
    "dropped_total", "traffic_total", "node_traffic", "first_activity_step",
    "last_activity_step", "payload_counts", "queue_depth_rows",
]


class ZeroAppendingRecorder:
    """The per-step series as one entry per step, empty steps included."""

    def __init__(self, record_queue_depths):
        self.record_queue_depths = record_queue_depths
        self.queued, self.delivered, self.rows = [], [], []

    def on_step_end(self, queued, delivered, depths):
        self.queued.append(queued)
        self.delivered.append(delivered)
        if self.record_queue_depths:
            self.rows.append(list(depths))

    def on_empty_steps(self, n):
        self.queued += [0] * n
        self.delivered += [0] * n
        if self.record_queue_depths:
            self.rows += [[0] * N_NODES for _ in range(n)]


counts = st.integers(0, 5)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("step"), counts, counts, st.lists(counts, min_size=N_NODES,
                                                            max_size=N_NODES)),
        st.tuples(st.just("empty"), st.integers(1, 6)),
        st.tuples(st.just("restore")),
    ),
    max_size=25,
)


@given(ops, st.booleans())
@settings(max_examples=200, deadline=None)
def test_gaps_spell_out_like_appended_zeros(sequence, record_queue_depths):
    trace = TraceRecorder(N_NODES, record_queue_depths=record_queue_depths)
    ref = ZeroAppendingRecorder(record_queue_depths)
    for step, op in enumerate(sequence):
        if op[0] == "step":
            _, queued, delivered, depths = op
            trace.on_step_end(step, queued, delivered, depths)
            ref.on_step_end(queued, delivered, depths)
        elif op[0] == "empty":
            trace.on_empty_steps(op[1])
            ref.on_empty_steps(op[1])
        else:  # a checkpoint resume: a fresh recorder from the dense snapshot
            snapshot = trace.snapshot()
            trace = TraceRecorder(N_NODES, record_queue_depths=record_queue_depths)
            trace.restore(snapshot)
    dense = trace.dense()
    assert dense == {
        "queued_series": ref.queued,
        "delivered_series": ref.delivered,
        "queue_depth_rows": ref.rows,
    }
    snapshot = trace.snapshot()
    assert list(snapshot) == SNAPSHOT_KEYS
    assert snapshot["queued_series"] == ref.queued
    assert snapshot["delivered_series"] == ref.delivered
    assert snapshot["queue_depth_rows"] == ref.rows

    report = SimulationReport(trace, steps=len(ref.queued), quiescent=True)
    assert report.queued_series.tolist() == ref.queued
    assert report.interconnect_activity.tolist() == ref.queued
    assert report.delivered_series.tolist() == ref.delivered
    if ref.rows:
        assert report.queue_depths.tolist() == ref.rows
    else:
        assert report.queue_depths is None
    assert report.peak_queued == max(ref.queued, default=0)
    # each read is a new array: writing to one leaves the report as it was
    if ref.queued:
        report.queued_series[0] += 1
        assert report.queued_series.tolist() == ref.queued
