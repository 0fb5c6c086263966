"""Complete d-ary tree topology.

Trees are a natural match for the unfolding call structure of fork-join
solvers, and the paper cites efficient tree embeddings into hypercubes
(§II-A, refs [15], [16]).  This topology is used in ablation benches and as
an embedding target in ``examples/zoo/embedding.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import TopologyError
from .base import NodeId, Topology

__all__ = ["CompleteTree"]


class CompleteTree(Topology):
    """Complete ``arity``-ary tree with the given number of levels.

    Nodes are numbered in breadth-first order: node 0 is the root, the
    children of node ``i`` are ``arity*i + 1 .. arity*i + arity``.
    """

    kind = "tree"

    def __init__(self, arity: int, levels: int) -> None:
        if arity < 1:
            raise TopologyError(f"tree arity must be >= 1, got {arity}")
        if levels < 1:
            raise TopologyError(f"tree needs >= 1 level, got {levels}")
        self._arity = int(arity)
        self._levels = int(levels)
        if arity == 1:
            self._n = levels
        else:
            self._n = (arity**levels - 1) // (arity - 1)
        self._neigh: List[Tuple[NodeId, ...]] = []
        for node in range(self._n):
            out: List[NodeId] = []
            if node > 0:
                out.append((node - 1) // self._arity)
            first_child = self._arity * node + 1
            for c in range(first_child, min(first_child + self._arity, self._n)):
                out.append(c)
            self._neigh.append(tuple(out))

    @property
    def arity(self) -> int:
        """Branching factor of the tree."""
        return self._arity

    @property
    def levels(self) -> int:
        """Number of levels (root counts as level 1)."""
        return self._levels

    @property
    def n_nodes(self) -> int:
        return self._n

    def neighbours(self, node: NodeId) -> Sequence[NodeId]:
        self.check_node(node)
        return self._neigh[node]

    def parent(self, node: NodeId) -> NodeId | None:
        """Parent of ``node`` or ``None`` for the root."""
        self.check_node(node)
        return None if node == 0 else (node - 1) // self._arity

    def depth(self, node: NodeId) -> int:
        """Distance from the root (root has depth 0)."""
        self.check_node(node)
        d = 0
        while node > 0:
            node = (node - 1) // self._arity
            d += 1
        return d

    def diameter(self) -> int:
        return 2 * (self._levels - 1)

    def describe(self) -> str:
        return f"tree(arity={self._arity}, levels={self._levels}, n={self._n})"
