"""Arbitrary (irregular) topologies and NetworkX interoperability.

The paper notes that SpiNNaker's "underlying communication infrastructure
permits arbitrary topologies to be virtualised efficiently" (§II-A).
:class:`CustomTopology` lets users run the stack on any connected graph —
hand-built, loaded from data, or converted from a ``networkx`` graph —
and :func:`to_networkx` exports any of this package's topologies for
analysis/plotting with the NetworkX ecosystem.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import TopologyError
from .base import NodeId, Topology

__all__ = ["CustomTopology", "to_networkx", "from_networkx"]


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


def to_networkx(topology: Topology):
    """Export a topology as a ``networkx.Graph``.

    Nodes carry a ``coords`` attribute (the topology's coordinate for the
    node) so mesh layouts can be plotted directly.
    """
    import networkx as nx

    g = nx.Graph(kind=topology.kind, describe=topology.describe())
    for node in topology.nodes():
        g.add_node(node, coords=topology.coords(node))
    g.add_edges_from(topology.edges())
    return g


def from_networkx(graph, name: Optional[str] = None) -> CustomTopology:
    """Build a :class:`CustomTopology` from a ``networkx`` graph.

    Node labels may be arbitrary hashables; they are relabelled to dense
    integer ids in sorted order (natural sort when the labels are mutually
    comparable — so integer-labelled graphs keep their numbering — with a
    string-order fallback for mixed labels).  The graph must be undirected,
    simple and non-empty.
    """
    import networkx as nx

    if graph.number_of_nodes() == 0:
        raise TopologyError("cannot build a topology from an empty graph")
    if graph.is_directed():
        raise TopologyError("topologies are undirected; pass graph.to_undirected()")
    try:
        labels = sorted(graph.nodes())
    except TypeError:  # mixed/incomparable labels
        labels = sorted(graph.nodes(), key=str)
    index: Dict[Hashable, int] = {label: i for i, label in enumerate(labels)}
    adjacency: List[List[int]] = [[] for _ in labels]
    for label in labels:
        node = index[label]
        for nb in graph.neighbors(label):
            if nb == label:
                continue  # drop self-loops
            adjacency[node].append(index[nb])
        adjacency[node].sort()
    return CustomTopology(adjacency, name=name)
