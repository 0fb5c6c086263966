"""Binary hypercube topology (paper §II-A, Figure 1B).

An ``n``-dimensional hypercube has ``2**n`` nodes; node addresses are n-bit
strings and two nodes are adjacent iff their addresses differ in exactly one
bit.  Key properties the paper highlights (and our tests verify):

* node symmetry — every node has degree ``n``;
* ``n * 2**(n-1)`` links and diameter ``n``;
* distance equals Hamming distance of the addresses;
* lower-dimensional meshes, rings and trees embed efficiently
  (see ``examples/zoo/embedding.py``).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import TopologyError
from .base import Coord, NodeId, Topology

__all__ = ["Hypercube"]


class Hypercube(Topology):
    """Binary n-cube with ``2**dimension`` nodes."""

    kind = "hypercube"

    def __init__(self, dimension: int) -> None:
        if dimension < 0:
            raise TopologyError(f"hypercube dimension must be >= 0, got {dimension}")
        if dimension > 24:
            raise TopologyError(
                f"hypercube dimension {dimension} would create {2**dimension} nodes; "
                "refusing (> 2**24)"
            )
        self._dim = int(dimension)
        self._n = 1 << self._dim
        self._neigh: Tuple[Tuple[NodeId, ...], ...] = tuple(
            tuple(node ^ (1 << bit) for bit in range(self._dim))
            for node in range(self._n)
        )

    @property
    def dimension(self) -> int:
        """Number of address bits (= node degree = diameter)."""
        return self._dim

    @property
    def n_nodes(self) -> int:
        return self._n

    def neighbours(self, node: NodeId) -> Sequence[NodeId]:
        self.check_node(node)
        return self._neigh[node]

    def distance(self, a: NodeId, b: NodeId) -> int:
        """Hamming distance between the two node addresses."""
        self.check_node(a)
        self.check_node(b)
        return (a ^ b).bit_count()

    def diameter(self) -> int:
        return self._dim

    def coords(self, node: NodeId) -> Coord:
        """Address bits, most significant first, as a 0/1 tuple."""
        self.check_node(node)
        return tuple((node >> (self._dim - 1 - i)) & 1 for i in range(self._dim))

    def node_at(self, coord: Coord) -> NodeId:
        if len(coord) != self._dim:
            raise TopologyError(f"expected {self._dim} bits, got {coord!r}")
        node = 0
        for bit in coord:
            if bit not in (0, 1):
                raise TopologyError(f"hypercube coordinates are bits, got {coord!r}")
            node = (node << 1) | bit
        return node

    @property
    def shape(self) -> Coord:
        return tuple(2 for _ in range(self._dim))

    def describe(self) -> str:
        return f"hypercube({self._dim}d, n={self._n})"
