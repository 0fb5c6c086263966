"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.apps.sat import CNF, uf20_91_suite
from repro.topology import (
    CompleteTree,
    FullyConnected,
    Grid,
    Hypercube,
    Line,
    Ring,
    Star,
    Torus,
)

# the solvers outside the package import as ``zoo.*`` (examples/zoo/)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))


@pytest.fixture
def rng() -> random.Random:
    """A seeded random stream."""
    return random.Random(12345)


@pytest.fixture(scope="session")
def small_sat_suite():
    """Three satisfiable uf20-91-style instances (session-cached)."""
    return uf20_91_suite(3, seed=99)


@pytest.fixture
def tiny_cnf() -> CNF:
    """A small satisfiable formula with a unique model: x1 & ~x2 & (x2|x3)."""
    return CNF([(1,), (-2,), (2, 3)], num_vars=3)


@pytest.fixture
def unsat_cnf() -> CNF:
    """The smallest UNSAT formula: x1 & ~x1."""
    return CNF([(1,), (-1,)], num_vars=1)


def all_small_topologies():
    """A representative zoo of small topologies (used via parametrize)."""
    return [
        Torus((4, 4)),
        Torus((3, 3, 3)),
        Torus((2, 5)),
        Grid((4, 4)),
        Grid((2, 3, 2)),
        Ring(7),
        Line(6),
        Hypercube(4),
        FullyConnected(9),
        Star(6),
        CompleteTree(2, 4),
    ]
