"""Machine interconnect topologies (the paper's "hyperspace" meshes).

Public surface:

* :class:`Topology` — abstract interconnect description.
* Concrete machines: :class:`Torus`, :class:`Grid`, :class:`Hypercube`,
  :class:`FullyConnected`, :class:`Ring`, :class:`Line`, :class:`Star`,
  :class:`CompleteTree`.
* :func:`topology_from_spec` — parse ``"torus2d:14x14"``-style specs.

Gray-code embeddings into hypercubes live in ``examples/zoo/embedding.py``.
"""

from .base import Coord, NodeId, Topology
from .ccc import CubeConnectedCycles
from .custom import CustomTopology, from_networkx, to_networkx
from .factory import balanced_dims, nearest_mesh_dims, spec_of, topology_from_spec
from .fully_connected import FullyConnected, Star
from .hypercube import Hypercube
from .torus import Grid, Line, Ring, Torus
from .tree import CompleteTree

__all__ = [
    "Topology",
    "NodeId",
    "Coord",
    "CustomTopology",
    "to_networkx",
    "from_networkx",
    "Torus",
    "Grid",
    "Ring",
    "Line",
    "Hypercube",
    "FullyConnected",
    "Star",
    "CompleteTree",
    "CubeConnectedCycles",
    "spec_of",
    "topology_from_spec",
    "balanced_dims",
    "nearest_mesh_dims",
]
