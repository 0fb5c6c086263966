"""Tests for the cube-connected-cycles topology."""

import pytest

from repro.errors import TopologyError
from repro.topology import CubeConnectedCycles, Hypercube, topology_from_spec


class TestStructure:
    def test_node_count(self):
        for d in (1, 2, 3, 4, 5):
            assert CubeConnectedCycles(d).n_nodes == d * 2**d

    def test_degree_bounded_at_three(self):
        for d in (3, 4, 5):
            ccc = CubeConnectedCycles(d)
            assert all(ccc.degree(n) == 3 for n in ccc.nodes())

    def test_small_dimensions_degenerate_gracefully(self):
        assert all(CubeConnectedCycles(1).degree(n) == 1 for n in range(2))
        assert all(CubeConnectedCycles(2).degree(n) == 2 for n in range(8))

    def test_neighbour_symmetry(self):
        ccc = CubeConnectedCycles(4)
        for a in ccc.nodes():
            for b in ccc.neighbours(a):
                assert a in ccc.neighbours(b)

    def test_connected(self):
        assert CubeConnectedCycles(4).is_connected()

    def test_node_symmetric_degree(self):
        assert CubeConnectedCycles(3).is_node_symmetric()

    def test_logarithmic_ish_diameter(self):
        # CCC diameter is Theta(d): much smaller than node count
        ccc = CubeConnectedCycles(4)  # 64 nodes
        assert ccc.diameter() <= 2 * 4 + 4 // 2 - 2  # classic bound ~2.5d
        assert ccc.diameter() >= 4

    def test_invalid_dimensions(self):
        with pytest.raises(TopologyError):
            CubeConnectedCycles(0)
        with pytest.raises(TopologyError):
            CubeConnectedCycles(17)


class TestCoordinates:
    def test_roundtrip(self):
        ccc = CubeConnectedCycles(3)
        for n in ccc.nodes():
            assert ccc.node_at(ccc.coords(n)) == n

    def test_coords_shape(self):
        ccc = CubeConnectedCycles(3)
        assert len(ccc.coords(0)) == 4
        assert ccc.shape == (3, 2, 2, 2)

    def test_bad_coords(self):
        ccc = CubeConnectedCycles(3)
        with pytest.raises(TopologyError):
            ccc.node_at((0, 1))
        with pytest.raises(TopologyError):
            ccc.node_at((5, 0, 0, 0))
        with pytest.raises(TopologyError):
            ccc.node_at((0, 0, 2, 0))


class TestCubeRelation:
    def test_cube_links_cross_dimension(self):
        d = 3
        ccc = CubeConnectedCycles(d)
        for node in ccc.nodes():
            vertex, pos = divmod(node, d)
            partner = (vertex ^ (1 << pos)) * d + pos
            assert partner in ccc.neighbours(node)

    def test_spec_string(self):
        t = topology_from_spec("ccc:4")
        assert isinstance(t, CubeConnectedCycles)
        assert t.n_nodes == 64


class TestSolverOnCcc:
    def test_sat_solves(self, small_sat_suite):
        from repro.engine import RunSpec, execute

        cnf = small_sat_suite[0]
        spec = RunSpec(
            workload="sat", workload_params=cnf.to_params(), mapper="lbn", seed=1
        )
        res = execute(spec, topology=CubeConnectedCycles(4))
        assert res.verdict["sat"]
        assert cnf.is_satisfied_by(dict(res.verdict["assignment"]))

    def test_traversal(self):
        from repro.apps.traversal import run_traversal, visited_nodes

        ccc = CubeConnectedCycles(4)
        machine, _ = run_traversal(ccc)
        assert len(visited_nodes(machine)) == 64
