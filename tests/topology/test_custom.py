"""Tests for custom topologies and NetworkX interop."""

import networkx as nx
import pytest

from repro import HyperspaceStack
from repro.apps.sumrec import calculate_sum
from repro.errors import TopologyError
from repro.topology import (
    CustomTopology,
    Hypercube,
    Torus,
    from_networkx,
    to_networkx,
)


class TestCustomTopology:
    def test_basic_triangle(self):
        t = CustomTopology([(1, 2), (0, 2), (0, 1)])
        assert t.n_nodes == 3
        assert t.degree(0) == 2
        assert t.is_connected()

    def test_neighbour_order_preserved(self):
        t = CustomTopology([(2, 1), (0,), (0,)])
        assert t.neighbours(0) == (2, 1)

    def test_asymmetric_rejected(self):
        with pytest.raises(TopologyError):
            CustomTopology([(1,), ()])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            CustomTopology([(0,)])

    def test_out_of_range_rejected(self):
        with pytest.raises(TopologyError):
            CustomTopology([(5,)])

    def test_duplicate_neighbour_rejected(self):
        with pytest.raises(TopologyError):
            CustomTopology([(1, 1), (0,)])

    def test_describe_with_name(self):
        t = CustomTopology([(1,), (0,)], name="pair")
        assert t.describe() == "pair(n=2)"

    def test_stack_runs_on_custom_topology(self):
        # a 6-node "bowtie": two triangles joined at node 2
        adj = [(1, 2), (0, 2), (0, 1, 3, 4), (2, 4), (2, 3, 5), (4,)]
        t = CustomTopology(adj, name="bowtie")
        stack = HyperspaceStack(t)
        result, report = stack.run_recursive(calculate_sum, 12)
        assert result == 78
        assert report.quiescent


class TestToNetworkx:
    def test_roundtrip_node_and_edge_counts(self):
        topo = Torus((4, 4))
        g = to_networkx(topo)
        assert g.number_of_nodes() == 16
        assert g.number_of_edges() == topo.n_links()

    def test_coords_attribute(self):
        g = to_networkx(Torus((3, 3)))
        assert g.nodes[4]["coords"] == (1, 1)

    def test_distances_agree(self):
        topo = Hypercube(4)
        g = to_networkx(topo)
        for a in (0, 7, 15):
            lengths = nx.single_source_shortest_path_length(g, a)
            for b in topo.nodes():
                assert lengths[b] == topo.distance(a, b)

    def test_graph_metadata(self):
        g = to_networkx(Torus((2, 2)))
        assert g.graph["kind"] == "torus"


class TestFromNetworkx:
    def test_petersen_graph(self):
        g = nx.petersen_graph()
        topo = from_networkx(g, name="petersen")
        assert topo.n_nodes == 10
        assert all(topo.degree(n) == 3 for n in topo.nodes())
        assert topo.diameter() == 2

    def test_roundtrip_torus(self):
        original = Torus((3, 4))
        back = from_networkx(to_networkx(original))
        assert back.n_nodes == original.n_nodes
        for a in original.nodes():
            assert set(back.neighbours(a)) == set(original.neighbours(a))

    def test_string_labels_relabelled(self):
        g = nx.Graph([("a", "b"), ("b", "c")])
        topo = from_networkx(g)
        assert topo.n_nodes == 3
        assert topo.is_connected()

    def test_self_loops_dropped(self):
        g = nx.Graph([(0, 0), (0, 1)])
        topo = from_networkx(g)
        assert topo.neighbours(0) == (1,)

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            from_networkx(nx.Graph())

    def test_directed_rejected(self):
        with pytest.raises(TopologyError):
            from_networkx(nx.DiGraph([(0, 1)]))

    def test_solver_on_petersen(self):
        from repro.apps.sat import uf20_91_suite
        from repro.engine import RunSpec, execute

        topo = from_networkx(nx.petersen_graph(), name="petersen")
        cnf = uf20_91_suite(1, seed=55)[0]
        spec = RunSpec(workload="sat", workload_params=cnf.to_params(), seed=1)
        res = execute(spec, topology=topo)
        assert res.verdict["sat"]
        assert cnf.is_satisfied_by(dict(res.verdict["assignment"]))
