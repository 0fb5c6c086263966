"""The node partitioner for the sharded simulation backend.

A partition splits a topology's node set into ``k`` disjoint shards for
:class:`~repro.netsim.sharded.ShardedMachine`.  There is one strategy,
``strip``: contiguous node-id ranges, balanced within one node of
``n / k`` by construction and deterministic.  The resulting ``edge_cut``
is reported in telemetry but measures no traffic: layer-1 state lives on
the coordinator, so every delivery is shipped to its owner and every send
comes back as an intent whatever the cut.  A smaller cut was measured
never to be faster (``docs/parallelism.md``), so no cut-minimising
partitioner is kept.
"""

from __future__ import annotations

from typing import List

from ..errors import SimulationError
from ..topology import Topology

__all__ = ["edge_cut", "partition_strip"]

#: A partition: ``parts[i]`` is the sorted list of node ids in shard ``i``.
Partition = List[List[int]]


def partition_strip(topology: Topology, shards: int) -> Partition:
    """Contiguous node-id ranges, sizes balanced within one node."""
    n = topology.n_nodes
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    if shards > n:
        raise SimulationError(f"cannot split {n} nodes into {shards} shards")
    base, extra = divmod(n, shards)
    parts: Partition = []
    at = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        parts.append(list(range(at, at + size)))
        at += size
    return parts


def edge_cut(topology: Topology, parts: Partition) -> int:
    """Number of topology edges whose endpoints land in different shards."""
    part_of = [0] * topology.n_nodes
    for si, nodes in enumerate(parts):
        for node in nodes:
            part_of[node] = si
    return sum(1 for a, b in topology.edges() if part_of[a] != part_of[b])
