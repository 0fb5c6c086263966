"""Topology embeddings into hypercubes (paper §II-A, refs [14]-[16]).

The paper motivates hypercubes partly by their ability to embed other
topologies efficiently: "hypercubes can embed other topologies including
trees and lower-dimensional meshes efficiently".  This module implements the
classic constructions:

* :func:`gray_code` / :func:`gray_rank` — the reflected binary Gray code, the
  workhorse of mesh/ring embeddings (consecutive codes differ in one bit, so
  a ring maps to a dilation-1 cycle in the cube);
* :func:`embed_ring_in_hypercube` — dilation-1 embedding of an even cycle;
* :func:`embed_grid_in_hypercube` — dilation-1 embedding of a grid whose
  extents are powers of two (Chan [14]);
* :func:`embed_tree_in_hypercube` — double-rooted-style inorder embedding of
  a complete binary tree with dilation <= 2 (Bhatt & Ipsen [15]);
* :class:`Embedding` — an injective guest→host node map with
  dilation/expansion quality metrics.

No layer of :mod:`repro` reads an embedding; ``topology_playground.py``
uses one to size the link latency of a guest machine.  It imports as
``zoo.embedding`` with ``examples/`` on ``sys.path`` (a script in
``examples/`` has it there; the test suite's conftest puts it there).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import TopologyError
from repro.topology import CompleteTree, Grid, Hypercube, NodeId, Ring, Topology, Torus

__all__ = [
    "gray_code",
    "gray_rank",
    "embed_ring_in_hypercube",
    "embed_grid_in_hypercube",
    "embed_tree_in_hypercube",
    "Embedding",
    "dilation",
    "is_valid_embedding",
]


def gray_code(i: int) -> int:
    """The i-th reflected binary Gray code."""
    if i < 0:
        raise TopologyError(f"gray_code index must be >= 0, got {i}")
    return i ^ (i >> 1)


def gray_rank(g: int) -> int:
    """Inverse of :func:`gray_code`."""
    if g < 0:
        raise TopologyError(f"gray_rank argument must be >= 0, got {g}")
    i = 0
    while g:
        i ^= g
        g >>= 1
    return i


class Embedding:
    """A mapping of guest nodes onto distinct host nodes.

    Parameters
    ----------
    guest, host:
        The two topologies.
    mapping:
        ``mapping[guest_node] == host_node``; must be injective.
    """

    __slots__ = ("guest", "host", "mapping")

    def __init__(self, guest: Topology, host: Topology, mapping: Sequence[NodeId]):
        if len(mapping) != guest.n_nodes:
            raise TopologyError(
                f"mapping covers {len(mapping)} nodes, guest has {guest.n_nodes}"
            )
        seen: Dict[NodeId, NodeId] = {}
        for g, h in enumerate(mapping):
            host.check_node(h)
            if h in seen:
                raise TopologyError(
                    f"embedding not injective: guest nodes {seen[h]} and {g} "
                    f"both map to host node {h}"
                )
            seen[h] = g
        self.guest = guest
        self.host = host
        self.mapping = tuple(mapping)

    def dilation(self) -> int:
        """Max host distance across any guest edge (1 = adjacency preserved)."""
        worst = 0
        for a, b in self.guest.edges():
            worst = max(worst, self.host.distance(self.mapping[a], self.mapping[b]))
        return worst

    def expansion(self) -> float:
        """Host size / guest size."""
        return self.host.n_nodes / self.guest.n_nodes

    def average_dilation(self) -> float:
        """Mean host distance across guest edges."""
        dists = [
            self.host.distance(self.mapping[a], self.mapping[b])
            for a, b in self.guest.edges()
        ]
        return sum(dists) / len(dists) if dists else 0.0


def dilation(guest: Topology, host: Topology, mapping: Sequence[NodeId]) -> int:
    """Convenience wrapper: dilation of ``mapping`` from guest into host."""
    return Embedding(guest, host, mapping).dilation()


def is_valid_embedding(
    guest: Topology, host: Topology, mapping: Sequence[NodeId]
) -> bool:
    """True if ``mapping`` is injective and host-valid (any dilation)."""
    try:
        Embedding(guest, host, mapping)
    except TopologyError:
        return False
    return True


def embed_ring_in_hypercube(ring: Ring, cube: Hypercube) -> Embedding:
    """Dilation-1 embedding of an even-length ring via the Gray code.

    Requires ``len(ring)`` to be even, >= 4 (or exactly the full cube size);
    odd cycles cannot embed with dilation 1 because hypercubes are bipartite.
    Only the full-cube case ``len(ring) == 2**dim`` is implemented here — the
    general even-cycle construction is not needed by the benches.
    """
    n = ring.n_nodes
    if n != cube.n_nodes:
        raise TopologyError(
            f"ring size {n} != hypercube size {cube.n_nodes}; "
            "only full-cube ring embeddings are supported"
        )
    if n >= 2 and n % 2 != 0:
        raise TopologyError("odd rings cannot embed in a (bipartite) hypercube")
    return Embedding(ring, cube, [gray_code(i) for i in range(n)])


def _is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def embed_grid_in_hypercube(grid: Grid | Torus, cube: Hypercube) -> Embedding:
    """Dilation-1 embedding of a power-of-two grid (or torus) into a cube.

    Each axis of extent ``2**k`` consumes ``k`` address bits, Gray-coded so
    that moving one step along any axis flips exactly one bit.  Wrap-around
    torus links also have dilation 1 when every extent is >= 4 or == 2 (the
    Gray code of an even full range is cyclic).
    """
    dims = grid.shape
    bits_per_axis = []
    total_bits = 0
    for d in dims:
        if not _is_power_of_two(d):
            raise TopologyError(
                f"grid extents must be powers of two for dilation-1 embedding, got {dims}"
            )
        k = d.bit_length() - 1
        bits_per_axis.append(k)
        total_bits += k
    if total_bits != cube.dimension:
        raise TopologyError(
            f"grid {dims} needs a {total_bits}-cube, got a {cube.dimension}-cube"
        )
    mapping: List[NodeId] = []
    for node in range(grid.n_nodes):
        coord = grid.coords(node)
        addr = 0
        for c, k in zip(coord, bits_per_axis):
            addr = (addr << k) | gray_code(c)
        mapping.append(addr)
    return Embedding(grid, cube, mapping)


def embed_tree_in_hypercube(tree: CompleteTree, cube: Hypercube) -> Embedding:
    """Embed a complete binary tree with ``2**d - 1`` nodes into a d-cube.

    Uses the inorder-labelling construction: number tree nodes by inorder
    traversal (1..2**d-1) and map each to that integer's address in the cube
    (address 0 stays unused).  This yields dilation <= 2, which our tests
    verify — matching the classic Bhatt-Ipsen bound [15] for single cubes.
    """
    if tree.arity != 2:
        raise TopologyError("only binary trees embed via the inorder construction")
    if tree.n_nodes != cube.n_nodes - 1:
        raise TopologyError(
            f"tree has {tree.n_nodes} nodes; need 2**{cube.dimension} - 1 "
            f"= {cube.n_nodes - 1}"
        )
    # inorder traversal of the implicit BFS-numbered complete binary tree
    mapping = [0] * tree.n_nodes
    counter = 1

    def visit(node: int) -> None:
        nonlocal counter
        left = 2 * node + 1
        right = 2 * node + 2
        if left < tree.n_nodes:
            visit(left)
        mapping[node] = counter
        counter += 1
        if right < tree.n_nodes:
            visit(right)

    visit(0)
    return Embedding(tree, cube, mapping)
