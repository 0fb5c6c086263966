"""Layer 1 — simulated message-passing machine (paper §IV-A).

Public surface:

* :class:`Machine` — the discrete-time event-loop backend.
* :class:`NodeProgram` / :class:`FunctionalProgram` / :class:`NodeContext` —
  the node code interface.
* :class:`TraceRecorder` / :class:`SimulationReport` — profiling (paper §V-C).
* :class:`FaultModel`, LIFO/random and bounded inboxes (``Machine``'s
  ``queue_policy`` / ``queue_capacity``) — documented extensions.
* :class:`ShardedMachine` + :mod:`repro.netsim.partition` — the sharded
  multi-process backend (bit-identical to :class:`Machine`).
"""

from .backend import EXTERNAL, Machine
from .faults import FaultModel, ReliableLinks
from .message import EMPTY_MSG, Envelope
from .partition import edge_cut, partition_strip
from .program import FunctionalProgram, NodeContext, NodeProgram, SendFn
from .sharded import (
    SHARDS_ENV_VAR,
    ShardProgramSpec,
    ShardWorkerError,
    ShardedMachine,
    resolve_shards,
)
from .sizing import HEADER_SIZE, SizeFn, generic_content_size, make_envelope_sizer, unit_size
from .trace import SimulationReport, TraceRecorder, gini, spatial_entropy

__all__ = [
    "Machine",
    "ShardedMachine",
    "ShardProgramSpec",
    "ShardWorkerError",
    "SHARDS_ENV_VAR",
    "resolve_shards",
    "partition_strip",
    "edge_cut",
    "EXTERNAL",
    "EMPTY_MSG",
    "Envelope",
    "NodeProgram",
    "FunctionalProgram",
    "NodeContext",
    "SendFn",
    "TraceRecorder",
    "SimulationReport",
    "spatial_entropy",
    "gini",
    "FaultModel",
    "ReliableLinks",
    "SizeFn",
    "unit_size",
    "generic_content_size",
    "make_envelope_sizer",
    "HEADER_SIZE",
]
