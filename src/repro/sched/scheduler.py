"""Layer 2: the node-level process scheduler.

:class:`SchedulerProgram` is a layer-1 :class:`~repro.netsim.NodeProgram`
that hosts the same set of process templates on every node (SPMD style).
It is responsible for "scheduling if processes are more numerous than
hardware threads" (paper §III-A2):

* network messages arriving at a node are demultiplexed to the addressed
  process;
* processes on one node exchange *local* messages without touching the
  network;
* when several processes have pending local messages, round-robin picks
  who runs (the next pid above the last one that ran, wrapping to the
  lowest), limited by a per-step message ``budget`` (the
  preemption-granularity analogue).

With the default ``budget=None`` every pending message is handled in the
step it becomes deliverable (run-to-completion), which is what the solver
stack uses; finite budgets exercise genuinely interleaved schedules.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..domains import judge
from ..errors import SchedulingError
from ..netsim import NodeContext
from ..topology import NodeId
from .process import Address, Process, ProcessContext

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..telemetry import TelemetryBus

__all__ = ["SchedulerProgram", "Packet"]


class Packet:
    """Wire format for inter-node process messages."""

    __slots__ = ("dst_pid", "src_pid", "payload")

    def __init__(self, dst_pid: int, src_pid: int, payload: Any) -> None:
        self.dst_pid = dst_pid
        self.src_pid = src_pid
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Packet(pid {self.src_pid}->{self.dst_pid}: {self.payload!r})"


class _NodeSched:
    """Per-node scheduler bookkeeping (stored in the layer-1 state slot)."""

    __slots__ = (
        "proc_ctxs", "queues", "budget_step", "budget_used", "poll_pending", "last_pid"
    )

    def __init__(self, proc_ctxs: List[ProcessContext]):
        self.proc_ctxs = proc_ctxs
        #: per-pid queues of (sender, payload), in ascending pid order
        self.queues: Dict[int, Deque[Tuple[Optional[Address], Any]]] = {
            ctx.pid: deque() for ctx in proc_ctxs
        }
        #: step the budget counter refers to; both stay put without a budget
        self.budget_step = -2
        self.budget_used = 0
        self.poll_pending = False
        #: pid that ran most recently on this node (-1 = none yet): the
        #: round-robin cursor; a change is a context switch, published when
        #: telemetry is on
        self.last_pid = -1


class SchedulerProgram:
    """Host ``processes`` on every node of a machine.

    Parameters
    ----------
    processes:
        Process templates; the template at index *i* serves pid *i* on every
        node.  Templates are shared objects — all per-node state must live
        in ``ctx.state`` (the contexts are per ``(node, pid)``).
    budget:
        Max messages a node may process per step, or ``None`` for unlimited
        (run-to-completion, the default).
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryBus`; when given, the
        scheduler publishes layer-2 ``context_switch`` events, a per-drain
        ``run_queue`` depth counter and ``budget_exhausted`` markers, and
        points the bus's cursor at each node as it starts draining.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        budget: Optional[int] = None,
        telemetry: Optional["TelemetryBus"] = None,
    ) -> None:
        if not processes:
            raise SchedulingError("scheduler needs at least one process template")
        judge("scheduler_budget", budget)
        self._templates = list(processes)
        self._budget = budget
        self._telemetry = telemetry
        #: one process and no budget: _drain pops queues[0] directly
        self._solo = len(self._templates) == 1 and budget is None
        #: ... and no bus either: on_message hands a message arriving at an
        #: idle node straight to the process, with no queue in between
        self._direct = self._solo and telemetry is None
        #: per pid, ``Address(node, pid)`` for every node addressed so far
        #: (addresses are values, so machines of any size share them)
        self._peers: List[List[Address]] = [[] for _ in self._templates]

    # -- layer-1 NodeProgram interface ----------------------------------

    def init(self, ctx: NodeContext) -> None:
        node = ctx.node
        if node >= len(self._peers[0]):
            n_nodes = ctx.n_nodes
            for pid, peers in enumerate(self._peers):
                peers.extend(Address(n, pid) for n in range(len(peers), n_nodes))
        proc_ctxs: List[ProcessContext] = []
        for pid, peers in enumerate(self._peers):
            addr = peers[node]
            pctx = ProcessContext(
                addr, ctx.neighbours, self._make_send(ctx, addr), ctx, peers
            )
            proc_ctxs.append(pctx)
        ctx.state = _NodeSched(proc_ctxs)
        for pid, template in enumerate(self._templates):
            template.init(proc_ctxs[pid])

    def on_message(self, ctx: NodeContext, sender: NodeId, payload: Any) -> None:
        sched: _NodeSched = ctx.state
        if (
            self._direct
            and payload.__class__ is Packet
            and not sched.queues[0]
            and sender >= 0
            and payload.dst_pid == 0
            and payload.src_pid == 0
        ):
            # Direct dispatch: the general path below would queue the one
            # message and pop it straight back for pid 0.  The cursor ends
            # where that drain leaves it, and local work the handler queued
            # runs in this same call, as it would in that drain's loop.
            sched.last_pid = 0
            self._templates[0].on_message(
                sched.proc_ctxs[0], self._peers[0][sender], payload.payload
            )
            if sched.queues[0]:
                self._drain(ctx, sched)
            return
        if isinstance(payload, Packet):
            src = Address(sender, payload.src_pid) if sender >= 0 else None
            self._enqueue(ctx, sched, payload.dst_pid, src, payload.payload)
        else:
            # Raw (kickstart) payloads go to pid 0 with no sender address.
            self._enqueue(ctx, sched, 0, None, payload)
        self._drain(ctx, sched)

    def on_step(self, ctx: NodeContext) -> None:
        sched: _NodeSched = ctx.state
        sched.poll_pending = False
        self._drain(ctx, sched)

    def release(self, ctx: NodeContext) -> None:
        """Clear one node's process states, after each template's optional
        ``release(pctx)`` hook, when the machine closes."""
        sched: Optional[_NodeSched] = ctx.state
        if sched is None:
            return
        for template, pctx in zip(self._templates, sched.proc_ctxs):
            release = getattr(template, "release", None)
            if release is not None:
                release(pctx)
            pctx.state = None

    # -- internals -------------------------------------------------------

    def _make_send(self, node_ctx: NodeContext, src: Address):
        n_pids = len(self._templates)
        src_node, src_pid = src

        def send(dst: Address, payload: Any) -> None:
            if dst.__class__ is not Address:
                dst = Address(*dst)
            node, pid = dst
            if pid < 0 or pid >= n_pids:
                raise SchedulingError(f"no process with pid {pid}")
            if node == src_node:
                sched: _NodeSched = node_ctx.state
                self._enqueue(node_ctx, sched, pid, src, payload)
                self._schedule_poll(node_ctx, sched)
            else:
                node_ctx.send(node, Packet(pid, src_pid, payload))

        return send

    def _enqueue(
        self,
        ctx: NodeContext,
        sched: _NodeSched,
        pid: int,
        sender: Optional[Address],
        payload: Any,
    ) -> None:
        queue = sched.queues.get(pid)
        if queue is None:
            raise SchedulingError(f"node {ctx.node} has no process {pid}")
        queue.append((sender, payload))

    def _schedule_poll(self, ctx: NodeContext, sched: _NodeSched) -> None:
        if not sched.poll_pending:
            sched.poll_pending = True
            ctx.machine.request_poll(ctx.node)

    def _next_pid(self, sched: _NodeSched) -> Optional[int]:
        """Round-robin: the first pid above ``last_pid`` with a message
        queued, else the lowest such pid, else ``None``."""
        # queues are built (and restored in place) in ascending pid order
        first = None
        for pid, q in sched.queues.items():
            if q:
                if pid > sched.last_pid:
                    return pid
                if first is None:
                    first = pid
        return first

    def _drain(self, ctx: NodeContext, sched: _NodeSched) -> None:
        step = ctx.step
        tel = self._telemetry
        budget = self._budget
        if budget is not None and sched.budget_step != step:
            sched.budget_step = step
            sched.budget_used = 0
        if self._solo:
            # The general loop below, specialised to one pid with no budget:
            # every message runs pid 0, so only the first can switch.
            queue = sched.queues[0]
            if tel is not None:
                # the cursor every publication of this drain's handlers stamps
                tel.step = step
                tel.node = node = ctx.node
                tel.emit(2, "run_queue", step, node, attrs={"value": len(queue)})
            if queue and sched.last_pid != 0:
                if tel is not None:
                    tel.event(2, "context_switch", sched.last_pid, 0)
                sched.last_pid = 0
            while queue:
                sender, payload = queue.popleft()
                self._templates[0].on_message(sched.proc_ctxs[0], sender, payload)
            return
        if tel is not None:
            tel.step = step
            tel.node = node = ctx.node
            queued = sum(len(q) for q in sched.queues.values())
            tel.emit(2, "run_queue", step, node, attrs={"value": queued})
        while True:
            pid = self._next_pid(sched)
            if pid is None:
                return
            if budget is not None and sched.budget_used >= budget:
                # Out of budget: finish remaining work on a later step.
                if tel is not None:
                    pending = (
                        sum(len(q) for q in sched.queues.values()) if tel.want_events else 0
                    )
                    tel.event(2, "budget_exhausted", pending)
                self._schedule_poll(ctx, sched)
                return
            sender, payload = sched.queues[pid].popleft()
            if budget is not None:
                sched.budget_used += 1
            if pid != sched.last_pid:
                if tel is not None:
                    tel.event(2, "context_switch", sched.last_pid, pid)
                sched.last_pid = pid
            self._templates[pid].on_message(sched.proc_ctxs[pid], sender, payload)

    # -- snapshot / restore (repro.state protocol) -----------------------

    #: snapshot-schema version of the scheduler layer state
    STATE_VERSION = 3

    def _snapshot_node(self, ctx: NodeContext, _arg: Any = None) -> Dict[str, Any]:
        """Capture one node's scheduler bookkeeping + per-process state
        (a ``map_nodes`` callback: runs where the node's state lives)."""
        sched: _NodeSched = ctx.state
        procs: Dict[int, Tuple[str, Any]] = {}
        for pid, template in enumerate(self._templates):
            pstate = sched.proc_ctxs[pid].state
            hook = getattr(template, "snapshot_process_state", None)
            if hook is not None:
                procs[pid] = ("hook", hook(pstate))
            else:
                procs[pid] = ("raw", pstate)
        return {
            "queues": {pid: list(q) for pid, q in sched.queues.items()},
            "budget_step": sched.budget_step,
            "budget_used": sched.budget_used,
            "poll_pending": sched.poll_pending,
            "last_pid": sched.last_pid,
            "procs": procs,
        }

    def _restore_node(self, ctx: NodeContext, ndata: Dict[str, Any]) -> None:
        """Install one node's captured state (inverse of _snapshot_node)."""
        from ..state import CheckpointError

        sched: _NodeSched = ctx.state

        for pid, q in sched.queues.items():
            q.clear()
            q.extend(ndata["queues"].get(pid, ()))
        sched.budget_step = ndata["budget_step"]
        sched.budget_used = ndata["budget_used"]
        sched.poll_pending = ndata["poll_pending"]
        sched.last_pid = ndata["last_pid"]
        for pid, (kind, pdata) in ndata["procs"].items():
            pctx = sched.proc_ctxs[pid]
            template = self._templates[pid]
            hook = getattr(template, "restore_process_state", None)
            if kind == "hook":
                if hook is None:
                    raise CheckpointError(
                        f"process template {type(template).__name__} "
                        "cannot restore a hook-captured state"
                    )
                hook(pctx, pdata)
            else:
                pctx.state = pdata

    def snapshot(self, machine: Any) -> Any:
        """Capture every node's scheduler state as a ``LayerState``.

        The scheduler is a template: its per-node state lives in the
        machine's node-state slots, so the machine is the explicit handle.
        Per-process state is delegated to the template when it implements
        the ``snapshot_process_state(state)`` hook (layer 3 does, carrying
        layers 4-5 inside); hookless templates are captured raw.  Either
        way the capture holds live objects until the checkpoint pickles it.

        The per-node captures are gathered through ``machine.map_nodes``
        — from this process or from the owning shard workers, with
        identical snapshot data (and therefore checkpoint digest) either
        way, which is what lets a checkpoint hop between shard counts.
        """
        from ..state import LayerState

        n_nodes = machine.topology.n_nodes
        per_node = machine.map_nodes(SchedulerProgram._snapshot_node)
        data = {
            "n_nodes": n_nodes,
            "n_processes": len(self._templates),
            "nodes": [per_node[node] for node in range(n_nodes)],
        }
        return LayerState("sched", self.STATE_VERSION, data)

    def restore(self, machine: Any, state: Any) -> None:
        """Install a :meth:`snapshot`-captured state into ``machine``.

        The machine must already be initialised with this scheduler (same
        templates, same process count) — contexts and send closures are
        kept; queues, budgets, cursors and per-process state are replaced
        by the state's own objects, not copies.
        """
        from ..state import CheckpointError, LayerState  # noqa: F401

        data = state.require("sched", self.STATE_VERSION)
        if data["n_nodes"] != machine.topology.n_nodes:
            raise CheckpointError(
                f"scheduler snapshot covers {data['n_nodes']} nodes; "
                f"this machine has {machine.topology.n_nodes}"
            )
        if data["n_processes"] != len(self._templates):
            raise CheckpointError(
                f"scheduler snapshot hosts {data['n_processes']} processes "
                f"per node; this program hosts {len(self._templates)}"
            )
        # scatter: each node's capture is restored where the node lives
        machine.map_nodes(
            SchedulerProgram._restore_node, dict(enumerate(data["nodes"]))
        )

    # -- inspection helpers ----------------------------------------------

    def process_state(self, machine: Any, node: NodeId, pid: int = 0) -> Any:
        """Read the state of process ``pid`` on ``node`` of a machine."""
        sched: _NodeSched = machine.state_of(node)
        if not 0 <= pid < len(sched.proc_ctxs):
            raise SchedulingError(f"no process {pid} on node {node}")
        return sched.proc_ctxs[pid].state

    @property
    def n_processes(self) -> int:
        """Number of process templates per node."""
        return len(self._templates)
