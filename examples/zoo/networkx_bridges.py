"""Bridges between this package's topologies and ``networkx`` graphs.

:func:`to_networkx` exports any :class:`~repro.topology.Topology` for
analysis or plotting with the NetworkX ecosystem; :func:`from_networkx`
turns a graph into a :class:`~repro.topology.CustomTopology`, so the stack
runs on it (the paper's "arbitrary topologies", §II-A).  No layer of
:mod:`repro` reads a ``networkx`` graph; ``topology_playground.py`` runs a
workload on the Petersen graph through :func:`from_networkx`.  It imports
as ``zoo.networkx_bridges`` with ``examples/`` on ``sys.path``; networkx
is imported only when a bridge is called.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.errors import TopologyError
from repro.topology import CustomTopology, Topology

__all__ = ["to_networkx", "from_networkx"]


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
    """Build a :class:`~repro.topology.CustomTopology` from a ``networkx`` graph.

    Node labels may be arbitrary hashables; they are relabelled to dense
    integer ids in sorted order (natural sort when the labels are mutually
    comparable — so integer-labelled graphs keep their numbering — with a
    string-order fallback for mixed labels).  The graph must be undirected,
    simple and non-empty.
    """
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
