"""Node partitioners for the sharded simulation backend.

A partition splits a topology's node set into ``k`` disjoint shards for
:class:`~repro.netsim.sharded.ShardedMachine`.  Three strategies are
provided, in increasing order of cut quality (and cost):

* ``strip`` — contiguous node-id ranges.  The baseline: trivially
  balanced, oblivious to the interconnect, and what the shard-count
  knob alone would give you.
* ``grid`` — block decomposition over the topology's coordinate
  ``shape``: nodes are reordered block-major (a ``kr x kc`` tiling of
  the first two axes, chosen near-square) and the reordered sequence is
  cut into ``k`` equal runs.  On meshes whose extents the tiling
  divides, shards are exact rectangular blocks — the classic
  surface-to-volume win over strips (cf. the job/mesh mapping
  literature behind Figure 4's mapper comparison).
* ``greedy`` — local min-cut refinement: start from ``strip`` and
  accept single-node moves between shards only when they strictly
  reduce the edge cut and keep every shard size within the balanced
  band.  By construction its cut is never worse than ``strip``'s.

All three are deterministic: same topology, same ``k`` (and, for
``greedy``, same ``seed``) give the identical partition.  Every shard is
balanced within one node of ``n / k``.  The resulting ``edge_cut`` is
reported in telemetry but measures no traffic: layer-1 state lives on the
coordinator, so every delivery is shipped to its owner and every send comes
back as an intent whatever the cut (measured in ``docs/parallelism.md``).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence

from ..errors import SimulationError
from ..topology import Topology

__all__ = [
    "PARTITIONERS",
    "edge_cut",
    "make_partition",
    "partition_greedy",
    "partition_grid_block",
    "partition_strip",
    "validate_partition",
]

#: A partition: ``parts[i]`` is the sorted list of node ids in shard ``i``.
Partition = List[List[int]]


def _check_shards(n_nodes: int, shards: int) -> None:
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    if shards > n_nodes:
        raise SimulationError(
            f"cannot split {n_nodes} nodes into {shards} shards"
        )


def _strip_sizes(n_nodes: int, shards: int) -> List[int]:
    base, extra = divmod(n_nodes, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _cut_in_order(order: Sequence[int], sizes: Sequence[int]) -> Partition:
    parts: Partition = []
    at = 0
    for size in sizes:
        parts.append(sorted(order[at : at + size]))
        at += size
    return parts


def partition_strip(topology: Topology, shards: int, seed: int = 0) -> Partition:
    """Contiguous node-id ranges, sizes balanced within one node."""
    n = topology.n_nodes
    _check_shards(n, shards)
    return _cut_in_order(range(n), _strip_sizes(n, shards))


def _block_factors(shards: int, rows: int, cols: int) -> "tuple[int, int]":
    """Factor ``shards`` into a ``kr x kc`` tiling matching the aspect ratio.

    Minimises the half-perimeter of the resulting blocks (the proxy for
    boundary length); ties break toward the smaller row count so the
    choice is deterministic.
    """
    best = (shards, 1)
    best_cost = float("inf")
    for kr in range(1, shards + 1):
        if shards % kr:
            continue
        kc = shards // kr
        if kr > rows or kc > cols:
            continue
        cost = rows / kr + cols / kc
        if cost < best_cost:
            best, best_cost = (kr, kc), cost
    if best_cost == float("inf"):
        # degenerate extents (e.g. a 1-d shape narrower than the tiling):
        # fall back to banding the first axis only
        best = (min(shards, rows), 1) if rows >= cols else (1, min(shards, cols))
    return best


def partition_grid_block(topology: Topology, shards: int, seed: int = 0) -> Partition:
    """Block decomposition over the topology's coordinate ``shape``.

    Nodes are keyed by their coarse block in a ``kr x kc`` tiling of the
    first two coordinate axes, ordered block-major, and the order is cut
    into ``k`` runs of balanced size — so shards stay within one node of
    each other even when the tiling does not divide the extents.  On a
    1-d shape this degenerates to ``strip``.
    """
    n = topology.n_nodes
    _check_shards(n, shards)
    shape = topology.shape
    rows = shape[0]
    cols = shape[1] if len(shape) > 1 else 1
    kr, kc = _block_factors(shards, rows, cols)

    def block_key(node: int) -> "tuple[int, int, int]":
        cs = topology.coords(node)
        r = cs[0]
        c = cs[1] if len(cs) > 1 else 0
        return (r * kr // rows, c * kc // max(cols, 1), node)

    order = sorted(topology.nodes(), key=block_key)
    return _cut_in_order(order, _strip_sizes(n, shards))


def partition_greedy(
    topology: Topology,
    shards: int,
    seed: int = 0,
    sweeps: int = 4,
) -> Partition:
    """Greedy min-cut refinement of the ``strip`` partition.

    Sweeps the nodes (visit order shuffled by ``seed``) and moves a node
    to a neighbouring shard when that strictly reduces the edge cut and
    both shard sizes stay inside the balanced band ``[floor(n/k),
    ceil(n/k)]``.  Stops after ``sweeps`` passes or the first pass with
    no improving move.  The cut is therefore monotonically non-increasing
    from ``strip``'s, and the output is a pure function of
    ``(topology, shards, seed)``.
    """
    n = topology.n_nodes
    _check_shards(n, shards)
    parts = partition_strip(topology, shards)
    if shards == 1:
        return parts
    part_of = [0] * n
    for si, nodes in enumerate(parts):
        for node in nodes:
            part_of[node] = si
    sizes = [len(nodes) for nodes in parts]
    floor_size, ceil_size = n // shards, -(-n // shards)
    adjacency = topology.adjacency_lists()
    rng = random.Random(seed)
    visit = list(range(n))
    for _ in range(max(1, sweeps)):
        rng.shuffle(visit)
        moved = False
        for node in visit:
            src = part_of[node]
            if sizes[src] - 1 < floor_size:
                continue
            # gain of moving to shard b = (neighbours in b) - (in src)
            local: Dict[int, int] = {}
            for nb in adjacency[node]:
                p = part_of[nb]
                local[p] = local.get(p, 0) + 1
            here = local.get(src, 0)
            best_dst, best_gain = -1, 0
            for dst in sorted(local):
                if dst == src or sizes[dst] + 1 > ceil_size:
                    continue
                gain = local[dst] - here
                if gain > best_gain:
                    best_dst, best_gain = dst, gain
            if best_dst >= 0:
                part_of[node] = best_dst
                sizes[src] -= 1
                sizes[best_dst] += 1
                moved = True
        if not moved:
            break
    refined: Partition = [[] for _ in range(shards)]
    for node in range(n):
        refined[part_of[node]].append(node)
    return refined


#: Registry of partitioner names -> functions.
PARTITIONERS: Dict[str, Callable[..., Partition]] = {
    "strip": partition_strip,
    "grid": partition_grid_block,
    "greedy": partition_greedy,
}


def make_partition(
    topology: Topology, shards: int, partitioner: str = "strip", seed: int = 0
) -> Partition:
    """Build and validate a partition by registry name."""
    try:
        fn = PARTITIONERS[partitioner]
    except KeyError:
        raise SimulationError(
            f"unknown partitioner {partitioner!r}; "
            f"expected one of {sorted(PARTITIONERS)}"
        ) from None
    parts = fn(topology, shards, seed=seed)
    validate_partition(topology, parts)
    return parts


def validate_partition(topology: Topology, parts: Partition) -> None:
    """Raise unless ``parts`` covers every node exactly once, balanced."""
    seen = sorted(node for shard in parts for node in shard)
    if seen != list(topology.nodes()):
        raise SimulationError(
            f"partition does not cover every node exactly once "
            f"({len(seen)} assignments over {topology.n_nodes} nodes)"
        )
    sizes = [len(shard) for shard in parts]
    if sizes and max(sizes) - min(sizes) > 1:
        raise SimulationError(f"partition is unbalanced: shard sizes {sizes}")


def edge_cut(topology: Topology, parts: Partition) -> int:
    """Number of topology edges whose endpoints land in different shards."""
    part_of = [0] * topology.n_nodes
    for si, nodes in enumerate(parts):
        for node in nodes:
            part_of[node] = si
    return sum(1 for a, b in topology.edges() if part_of[a] != part_of[b])
