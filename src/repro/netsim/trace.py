"""Simulation instrumentation (paper §V-C).

The paper's profiling pipeline logs, for every run:

1. **Computation time** — "the number of simulation time steps between the
   first (trigger) and last messages";
2. **Interconnect activity** — "the total number of queued messages across
   the mesh versus time" (Figure 5 top row);
3. **Node activity** — "the total messages delivered to each node during the
   simulation" (Figure 5 bottom row heatmaps).

:class:`TraceRecorder` collects all three with O(1) Python-int work per event
(numpy conversion happens once, post-run), plus per-payload-type counters and
an optional per-step per-node queue-depth matrix for fine-grained analysis.
Steps the clock jumps over cost one gap record per stretch, not one entry
per step.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..topology import Topology

if TYPE_CHECKING:  # numpy loads with the first report, not with the package
    import numpy as np

__all__ = ["TraceRecorder", "SimulationReport", "spatial_entropy", "gini"]


def _payload_kind(payload: Any) -> str:
    """Human-readable tag for per-type message counters."""
    if payload is None:
        return "empty"
    return type(payload).__name__


class TraceRecorder:
    """Accumulates simulation events; queried through :class:`SimulationReport`.

    The per-step series pay for events, not ticks: each executed step
    appends its values (``queued``, ``delivered`` and, when recording, a
    row of ``depth_rows``), and each run of steps the clock jumped over
    is one ``(position, length)`` entry of ``gaps`` — ``length`` steps
    that queued and delivered nothing, falling before the executed step
    at index ``position``.  :meth:`dense` spells the series out step by
    step, as :meth:`snapshot` writes them.

    Parameters
    ----------
    n_nodes:
        Machine size (for the node-activity histogram).
    record_queue_depths:
        If True, snapshot every node's queue depth at every executed step
        into ``depth_rows`` (the backend passes them to
        :meth:`on_step_end`).  Costs O(n_nodes) per step — off by
        default; the Figure 5 bench enables it for the unfolding heatmaps.
    """

    __slots__ = (
        "n_nodes",
        "record_queue_depths",
        "queued",
        "delivered",
        "depth_rows",
        "gaps",
        "node_delivered",
        "node_sent",
        "node_dropped",
        "sent_total",
        "delivered_total",
        "dropped_total",
        "traffic_total",
        "node_traffic",
        "first_activity_step",
        "last_activity_step",
        "payload_counts",
        "_kind_cache",
    )

    def __init__(self, n_nodes: int, record_queue_depths: bool = False) -> None:
        self.n_nodes = n_nodes
        self.record_queue_depths = record_queue_depths
        #: total messages sitting in queues at the end of each executed step
        self.queued: List[int] = []
        #: messages delivered during each executed step
        self.delivered: List[int] = []
        #: every node's queue depth at the end of each executed step
        self.depth_rows: List[List[int]] = []
        #: empty stretches: (executed steps before it, its length)
        self.gaps: List[Tuple[int, int]] = []
        self.node_delivered = [0] * n_nodes
        self.node_sent = [0] * n_nodes
        self.node_dropped = [0] * n_nodes
        self.sent_total = 0
        self.delivered_total = 0
        self.dropped_total = 0
        #: abstract wire units moved (see repro.netsim.sizing)
        self.traffic_total = 0
        self.node_traffic = [0] * n_nodes
        self.first_activity_step: Optional[int] = None
        self.last_activity_step: Optional[int] = None
        self.payload_counts: Dict[str, int] = {}
        #: payload type -> kind tag; on_send runs once per message, so the
        #: type-name lookup is cached instead of recomputed
        self._kind_cache: Dict[type, str] = {}

    # -- event hooks (called by the backend) ---------------------------

    def on_send(self, src: int, step: int, payload: Any, size: int = 1) -> None:
        self.sent_total += 1
        self.traffic_total += size
        if 0 <= src < self.n_nodes:
            self.node_sent[src] += 1
            self.node_traffic[src] += size
        cls = payload.__class__
        kind = self._kind_cache.get(cls)
        if kind is None:
            kind = _payload_kind(payload)
            self._kind_cache[cls] = kind
        counts = self.payload_counts
        counts[kind] = counts.get(kind, 0) + 1
        if self.first_activity_step is None:
            self.first_activity_step = step
        self.last_activity_step = step

    def on_drop(self, dst: int, step: int) -> None:
        """Account one dropped message.

        ``dst`` is the node the message was addressed to and ``step`` the
        step it was dropped at (``-1`` before the first step), so reports
        can attribute losses (fault injection, retry exhaustion) spatially.
        """
        self.dropped_total += 1
        self.node_dropped[dst] += 1
        if step >= 0:
            self.last_activity_step = step
            if self.first_activity_step is None:
                self.first_activity_step = step

    def on_deliver_batch(self, nodes: Sequence[int], step: int) -> None:
        """Account one step's deliveries: one message to each of ``nodes``.

        The step kernel calls this once per non-empty step with the
        delivery snapshot instead of once per message.  ``nodes`` must be
        non-empty.
        """
        self.delivered_total += len(nodes)
        node_delivered = self.node_delivered
        for dst in nodes:
            node_delivered[dst] += 1
        if self.first_activity_step is None:
            self.first_activity_step = step
        self.last_activity_step = step

    def on_step_end(
        self,
        step: int,
        total_queued: int,
        delivered_this_step: int,
        queue_depths: Optional[Sequence[int]] = None,
    ) -> None:
        self.queued.append(total_queued)
        self.delivered.append(delivered_this_step)
        if self.record_queue_depths and queue_depths is not None:
            self.depth_rows.append(list(queue_depths))

    def on_empty_steps(self, n: int) -> None:
        """Account ``n`` steps that queued and delivered nothing: one gap,
        merged into the previous one when no step ran in between."""
        gaps = self.gaps
        position = len(self.queued)
        if gaps and gaps[-1][0] == position:
            n += gaps.pop()[1]
        gaps.append((position, n))

    def dense(self) -> Dict[str, List[Any]]:
        """The per-step series with every gap spelled out as zeros:
        ``queued_series``, ``delivered_series`` and ``queue_depth_rows``
        (one list each, one entry per step)."""
        queued, delivered, gaps, rows = _compact(self)
        return {
            "queued_series": _spell_out(queued, gaps).tolist(),
            "delivered_series": _spell_out(delivered, gaps).tolist(),
            "queue_depth_rows": [] if rows is None else _spell_out(rows, gaps).tolist(),
        }

    # -- snapshot / restore (repro.state protocol) ---------------------

    def snapshot(self) -> Dict[str, Any]:
        """Copy every accumulated counter/series into a detached dict.

        The series are written dense (:meth:`dense`), one entry per step,
        so a checkpoint and its digest do not depend on how many steps the
        clock jumped over.  Configuration (``n_nodes``,
        ``record_queue_depths``) and the ``_kind_cache`` memo are not
        state: the former must match on restore, the latter rebuilds
        itself.
        """
        dense = self.dense()
        return {
            "n_nodes": self.n_nodes,
            "queued_series": dense["queued_series"],
            "delivered_series": dense["delivered_series"],
            "node_delivered": list(self.node_delivered),
            "node_sent": list(self.node_sent),
            "node_dropped": list(self.node_dropped),
            "sent_total": self.sent_total,
            "delivered_total": self.delivered_total,
            "dropped_total": self.dropped_total,
            "traffic_total": self.traffic_total,
            "node_traffic": list(self.node_traffic),
            "first_activity_step": self.first_activity_step,
            "last_activity_step": self.last_activity_step,
            "payload_counts": dict(self.payload_counts),
            "queue_depth_rows": dense["queue_depth_rows"],
        }

    def restore(self, data: Dict[str, Any]) -> None:
        """Install a :meth:`snapshot`-captured dict into this recorder.

        The dense series come back as executed steps with no gaps: the
        spelled-out form reads the same, and later gaps append as usual.
        """
        if data["n_nodes"] != self.n_nodes:
            from ..errors import CheckpointError

            raise CheckpointError(
                f"trace snapshot covers {data['n_nodes']} nodes; "
                f"this recorder covers {self.n_nodes}"
            )
        self.queued = list(data["queued_series"])
        self.delivered = list(data["delivered_series"])
        self.depth_rows = [list(row) for row in data["queue_depth_rows"]]
        self.gaps = []
        self.node_delivered = list(data["node_delivered"])
        self.node_sent = list(data["node_sent"])
        self.node_dropped = list(data["node_dropped"])
        self.sent_total = data["sent_total"]
        self.delivered_total = data["delivered_total"]
        self.dropped_total = data["dropped_total"]
        self.traffic_total = data["traffic_total"]
        self.node_traffic = list(data["node_traffic"])
        self.first_activity_step = data["first_activity_step"]
        self.last_activity_step = data["last_activity_step"]
        self.payload_counts = dict(data["payload_counts"])
        self._kind_cache = {}


def _compact(
    trace: TraceRecorder,
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", Optional["np.ndarray"]]:
    """A recorder's per-step series as arrays: queued and delivered per
    executed step, the ``(position, length)`` gaps, and the queue-depth
    rows (None when the recorder does not record them)."""
    import numpy as np

    rows = None
    if trace.record_queue_depths:
        rows = np.asarray(trace.depth_rows, dtype=np.int64).reshape(-1, trace.n_nodes)
    return (
        np.asarray(trace.queued, dtype=np.int64),
        np.asarray(trace.delivered, dtype=np.int64),
        np.asarray(trace.gaps, dtype=np.int64).reshape(-1, 2),
        rows,
    )


def _spell_out(executed: "np.ndarray", gaps: "np.ndarray") -> "np.ndarray":
    """``executed`` (one entry or row per executed step) with each gap
    ``(position, length)`` of ``gaps`` inserted as ``length`` zeros."""
    import numpy as np

    n = len(executed)
    if not len(gaps):
        return executed.copy()
    # shift[i]: gap steps before executed step i
    shift = np.zeros(n + 1, dtype=np.int64)
    shift[gaps[:, 0]] = gaps[:, 1]
    shift = np.cumsum(shift)
    out = np.zeros((n + int(shift[-1]),) + executed.shape[1:], dtype=np.int64)
    out[np.arange(n) + shift[:n]] = executed
    return out


class SimulationReport:
    """Immutable summary of one simulation run.

    Exposes the paper's three metrics plus derived statistics used by the
    benchmark harness (performance, spatial spread measures, heatmaps).

    The per-step series are held compact — executed steps plus the gaps
    the clock jumped over — and :attr:`queued_series`,
    :attr:`delivered_series`, :attr:`interconnect_activity` and
    :attr:`queue_depths` spell them out into a new dense array on every
    read.  Bind the array once (``series = report.queued_series``)
    rather than reading the property in a loop.
    """

    def __init__(
        self,
        trace: TraceRecorder,
        steps: int,
        quiescent: bool,
        topology: Optional[Topology] = None,
    ) -> None:
        self._topology = topology
        #: steps actually executed by :meth:`Machine.run`
        self.steps = steps
        #: True if the run ended because no messages remained anywhere
        self.quiescent = quiescent
        self.sent_total = trace.sent_total
        self.delivered_total = trace.delivered_total
        self.dropped_total = trace.dropped_total
        self.payload_counts = dict(trace.payload_counts)
        self._queued, self._delivered, self._gaps, self._depth_rows = _compact(trace)
        import numpy as np

        self.node_delivered = np.asarray(trace.node_delivered, dtype=np.int64)
        self.node_sent = np.asarray(trace.node_sent, dtype=np.int64)
        #: messages dropped per addressed node (fault injection / retry
        #: exhaustion); sums to ``dropped_total``
        self.node_dropped = np.asarray(trace.node_dropped, dtype=np.int64)
        self.traffic_total = trace.traffic_total
        self.node_traffic = np.asarray(trace.node_traffic, dtype=np.int64)
        self.first_activity_step = trace.first_activity_step
        self.last_activity_step = trace.last_activity_step

    # -- per-step series (built dense on each read) ----------------------

    @property
    def queued_series(self) -> np.ndarray:
        """Total messages queued at the end of each step (a new array)."""
        return _spell_out(self._queued, self._gaps)

    @property
    def delivered_series(self) -> np.ndarray:
        """Messages delivered during each step (a new array)."""
        return _spell_out(self._delivered, self._gaps)

    @property
    def queue_depths(self) -> Optional[np.ndarray]:
        """``steps x n_nodes`` queue depths (a new array), or None when the
        run did not record them or ran no step."""
        rows = self._depth_rows
        if rows is None:
            return None
        dense = _spell_out(rows, self._gaps)
        return dense if len(dense) else None

    # -- paper metrics ---------------------------------------------------

    @property
    def computation_time(self) -> int:
        """Steps between the first (trigger) and last messages (paper §V-C)."""
        if self.first_activity_step is None or self.last_activity_step is None:
            return 0
        return self.last_activity_step - self.first_activity_step

    @property
    def performance(self) -> float:
        """Figure 4's y-axis: ``1 / computation_time`` (inf-safe)."""
        t = self.computation_time
        return 1.0 / t if t > 0 else math.inf

    @property
    def interconnect_activity(self) -> np.ndarray:
        """Total queued messages per step (Figure 5 top-row series; a new
        array on each read)."""
        return self.queued_series

    @property
    def node_activity(self) -> np.ndarray:
        """Total messages delivered per node (Figure 5 bottom-row data)."""
        return self.node_delivered

    def heatmap(self) -> np.ndarray:
        """Node activity reshaped to the machine's mesh shape (2D+ meshes)."""
        if self._topology is None:
            raise ValueError("report was built without a topology reference")
        shape = self._topology.shape
        coords = [self._topology.coords(n) for n in range(self._topology.n_nodes)]
        import numpy as np

        grid = np.zeros(shape, dtype=np.int64)
        for node, c in enumerate(coords):
            grid[c] = self.node_delivered[node]
        return grid

    # -- derived statistics ------------------------------------------------

    @property
    def mean_message_size(self) -> float:
        """Average wire units per message (1.0 under the default model)."""
        return self.traffic_total / self.sent_total if self.sent_total else 0.0

    @property
    def peak_queued(self) -> int:
        """Maximum total queued messages across any step."""
        # a gap is all zeros, so the executed steps hold the peak
        return int(self._queued.max()) if self._queued.size else 0

    @property
    def active_node_count(self) -> int:
        """Number of nodes that received at least one message."""
        return int((self.node_delivered > 0).sum())

    @property
    def activity_entropy(self) -> float:
        """Shannon entropy (bits) of the delivered-message distribution.

        Higher = work spread more evenly across the mesh; used to quantify
        the "larger degree of spatial unfolding" of adaptive mapping (§V-E).
        """
        return spatial_entropy(self.node_delivered)

    @property
    def activity_gini(self) -> float:
        """Gini concentration of per-node activity (0 = even, →1 = one node)."""
        return gini(self.node_delivered)

    def summary(self) -> Dict[str, Any]:
        """Compact dict for benchmark tables and logs."""
        return {
            "steps": self.steps,
            "quiescent": self.quiescent,
            "computation_time": self.computation_time,
            "performance": self.performance,
            "sent": self.sent_total,
            "delivered": self.delivered_total,
            "dropped": self.dropped_total,
            "traffic": self.traffic_total,
            "peak_queued": self.peak_queued,
            "active_nodes": self.active_node_count,
            "activity_entropy": round(self.activity_entropy, 4),
            "activity_gini": round(self.activity_gini, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulationReport({self.summary()!r})"


def spatial_entropy(counts: Sequence[int]) -> float:
    """Shannon entropy in bits of a non-negative count histogram."""
    import numpy as np

    arr = np.asarray(counts, dtype=np.float64)
    total = arr.sum()
    if total <= 0:
        return 0.0
    p = arr[arr > 0] / total
    return float(-(p * np.log2(p)).sum())


def gini(counts: Sequence[int]) -> float:
    """Gini coefficient of a non-negative histogram (0 = uniform)."""
    import numpy as np

    arr = np.sort(np.asarray(counts, dtype=np.float64))
    n = arr.size
    total = arr.sum()
    if n == 0 or total <= 0:
        return 0.0
    # standard formula over sorted values
    index = np.arange(1, n + 1)
    return float((2.0 * (index * arr).sum() / (n * total)) - (n + 1.0) / n)
