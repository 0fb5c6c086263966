"""Construct topologies from compact spec strings.

The benchmark harness sweeps machines described by strings such as
``"torus2d:14x14"`` or ``"full:196"``; this module parses them.

Grammar (case-insensitive)::

    spec      := kind [ ":" params ]
    kind      := "torus" | "torus2d" | "torus3d" | "grid" | "hypercube"
               | "ccc" | "full" | "ring" | "line" | "star" | "tree"
    params    := extent ("x" extent)*        for meshes, e.g. "14x14"
               | integer                     for full/ring/line/star/hypercube
               | arity "x" levels            for tree

``torus2d:N`` / ``torus3d:N`` (single integer) pick the most-square mesh of
*approximately* N cores — exactly what the Figure 4 sweep needs when walking
core counts that have no exact square/cube factorisation.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..errors import TopologyError
from .base import Topology
from .ccc import CubeConnectedCycles
from .fully_connected import FullyConnected, Star
from .hypercube import Hypercube
from .torus import Grid, Line, Ring, Torus
from .tree import CompleteTree

__all__ = ["spec_of", "topology_from_spec", "balanced_dims", "nearest_mesh_dims"]


def balanced_dims(n_nodes: int, ndim: int) -> Tuple[int, ...]:
    """Most-balanced ``ndim`` extents whose product is exactly ``n_nodes``.

    Chooses the factorisation minimising the spread ``max(dims) - min(dims)``
    (ties broken lexicographically); extents of 1 are allowed, so a prime
    ``n_nodes`` yields a degenerate mesh like ``(1, 7)``.  Callers wanting
    "approximately n, well-shaped" should use :func:`nearest_mesh_dims`.
    """
    if n_nodes < 1 or ndim < 1:
        raise TopologyError(f"need n_nodes >= 1 and ndim >= 1, got {n_nodes}, {ndim}")
    best: Tuple[int, ...] | None = None

    def search(remaining: int, dims_left: int, min_factor: int, acc: list[int]) -> None:
        nonlocal best
        if dims_left == 1:
            if remaining >= min_factor:
                cand = tuple(sorted(acc + [remaining]))
                if best is None or (max(cand) - min(cand), cand) < (
                    max(best) - min(best),
                    best,
                ):
                    best = cand
            return
        # non-decreasing factor order bounds f by the dims_left-th root
        f = min_factor
        while f**dims_left <= remaining:
            if remaining % f == 0:
                search(remaining // f, dims_left - 1, f, acc + [f])
            f += 1

    search(n_nodes, ndim, 1, [])
    if best is None:
        raise TopologyError(f"{n_nodes} has no {ndim}-way factorisation")
    return best


def nearest_mesh_dims(n_nodes: int, ndim: int) -> Tuple[int, ...]:
    """Square/cubic extents whose product is the closest to ``n_nodes``.

    Returns ``(k,)*ndim`` with ``k = round(n_nodes ** (1/ndim))`` (at least 1),
    choosing between ``floor`` and ``ceil`` roots by which product lands
    closer to the request.  Used by the scalability sweep, which asks for
    "about N cores" at each point.
    """
    if n_nodes < 1 or ndim < 1:
        raise TopologyError(f"need n_nodes >= 1 and ndim >= 1, got {n_nodes}, {ndim}")
    root = n_nodes ** (1.0 / ndim)
    lo = max(1, math.floor(root))
    hi = lo + 1
    if abs(lo**ndim - n_nodes) <= abs(hi**ndim - n_nodes):
        k = lo
    else:
        k = hi
    return tuple([k] * ndim)


def _parse_extents(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise TopologyError(f"bad extent list {text!r}") from exc


def topology_from_spec(spec: str) -> Topology:
    """Parse a topology spec string (see module docstring for the grammar)."""
    if not isinstance(spec, str) or not spec.strip():
        raise TopologyError(f"empty topology spec {spec!r}")
    text = spec.strip().lower()
    kind, _, params = text.partition(":")
    kind = kind.strip()
    params = params.strip()

    def need_params() -> str:
        if not params:
            raise TopologyError(f"topology spec {spec!r} needs parameters")
        return params

    if kind in ("torus", "grid"):
        dims = _parse_extents(need_params())
        return Torus(dims) if kind == "torus" else Grid(dims)
    if kind in ("torus2d", "torus3d", "grid2d", "grid3d"):
        ndim = 2 if kind.endswith("2d") else 3
        dims = _parse_extents(need_params())
        if len(dims) == 1:
            dims = nearest_mesh_dims(dims[0], ndim)
        if len(dims) != ndim:
            raise TopologyError(f"{kind} expects {ndim} extents, got {dims}")
        return Torus(dims) if kind.startswith("torus") else Grid(dims)
    if kind == "hypercube":
        return Hypercube(int(need_params()))
    if kind == "ccc":
        return CubeConnectedCycles(int(need_params()))
    if kind in ("full", "fully_connected", "complete"):
        return FullyConnected(int(need_params()))
    if kind == "ring":
        return Ring(int(need_params()))
    if kind == "line":
        return Line(int(need_params()))
    if kind == "star":
        return Star(int(need_params()))
    if kind == "tree":
        dims = _parse_extents(need_params())
        if len(dims) != 2:
            raise TopologyError(f"tree spec wants 'arity x levels', got {params!r}")
        return CompleteTree(dims[0], dims[1])
    raise TopologyError(f"unknown topology kind {kind!r} in spec {spec!r}")


def spec_of(topology: Topology) -> "str | None":
    """The spec string that re-parses to an equal topology, or ``None``.

    The inverse of :func:`topology_from_spec` for every built-in family
    (``describe()`` output is for humans and does *not* re-parse).  A
    ``RunSpec`` built from a topology *object* uses this to stay
    JSON-serialisable; exotic topologies (``CustomTopology``, embeddings)
    have no spec string and yield ``None`` — such runs execute fine but
    their checkpoint headers cannot rebuild the machine unaided.

    Subclass order matters: a :class:`Ring` *is a* :class:`Torus` and a
    :class:`Line` *is a* :class:`Grid`, so the specific kinds are tested
    first.
    """
    if isinstance(topology, Ring):
        return f"ring:{topology.n_nodes}"
    if isinstance(topology, Line):
        return f"line:{topology.n_nodes}"
    if isinstance(topology, Torus):
        return "torus:" + "x".join(str(d) for d in topology.shape)
    if isinstance(topology, Grid):
        return "grid:" + "x".join(str(d) for d in topology.shape)
    if isinstance(topology, Hypercube):
        return f"hypercube:{topology.dimension}"
    if isinstance(topology, CubeConnectedCycles):
        return f"ccc:{topology.dimension}"
    if isinstance(topology, CompleteTree):
        return f"tree:{topology.arity}x{topology.levels}"
    if isinstance(topology, FullyConnected):
        return f"full:{topology.n_nodes}"
    if isinstance(topology, Star):
        return f"star:{topology.n_nodes}"
    return None
