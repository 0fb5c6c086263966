"""Arbitrary (irregular) topologies.

The paper notes that SpiNNaker's "underlying communication infrastructure
permits arbitrary topologies to be virtualised efficiently" (§II-A).
:class:`CustomTopology` lets users run the stack on any connected graph,
hand-built or loaded from data; ``examples/zoo/networkx_bridges.py``
converts to and from ``networkx`` graphs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import TopologyError
from .base import NodeId, Topology

__all__ = ["CustomTopology"]


class CustomTopology(Topology):
    """A topology defined by explicit adjacency lists.

    Parameters
    ----------
    adjacency:
        ``adjacency[i]`` is the ordered neighbour tuple of node *i*.
        The relation must be symmetric and self-loop-free; neighbour order
        is preserved (it drives round-robin mapping).
    name:
        Optional label used by :meth:`describe`.
    """

    kind = "custom"

    def __init__(
        self, adjacency: Sequence[Sequence[NodeId]], name: Optional[str] = None
    ) -> None:
        n = len(adjacency)
        neigh: List[Tuple[NodeId, ...]] = []
        for node, row in enumerate(adjacency):
            out = tuple(int(m) for m in row)
            for m in out:
                if not (0 <= m < n):
                    raise TopologyError(
                        f"node {node} lists out-of-range neighbour {m}"
                    )
                if m == node:
                    raise TopologyError(f"node {node} has a self-loop")
            if len(set(out)) != len(out):
                raise TopologyError(f"node {node} lists duplicate neighbours")
            neigh.append(out)
        for a in range(n):
            for b in neigh[a]:
                if a not in neigh[b]:
                    raise TopologyError(
                        f"asymmetric adjacency: {a} lists {b} but not vice versa"
                    )
        self._neigh = neigh
        self._n = n
        self.name = name

    @property
    def n_nodes(self) -> int:
        return self._n

    def neighbours(self, node: NodeId) -> Sequence[NodeId]:
        self.check_node(node)
        return self._neigh[node]

    def describe(self) -> str:
        label = self.name or "custom"
        return f"{label}(n={self._n})"
