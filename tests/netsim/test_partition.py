"""The shard partitioner: validity, balance, exact edge cut, determinism.

Written against every entry of ``PARTITIONERS``; ``strip`` (contiguous
node-id ranges) is the only partitioner the sharded backend has.
"""

import pytest

from repro.errors import SimulationError
from repro.netsim.partition import edge_cut, partition_strip
from repro.topology import FullyConnected, Grid, Hypercube, Line, Ring, Torus


PARTITIONERS = {"strip": partition_strip}

TOPOLOGIES = [
    Torus((4, 4)),
    Torus((6, 6)),
    Grid((5, 7)),
    Grid((8, 3)),
    Ring(12),
    Line(9),
    Hypercube(4),
]

SHARD_COUNTS = [1, 2, 3, 4, 7]


def assert_valid(topology, parts, shards):
    """Every node in exactly one of ``shards`` shards, sizes within one."""
    assert len(parts) == shards
    seen = sorted(n for part in parts for n in part)
    assert seen == list(topology.nodes())
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1, (topology.describe(), sizes)


class TestValidity:
    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_partition_is_valid_and_balanced(self, name, shards):
        for topo in TOPOLOGIES:
            if shards > topo.n_nodes:
                continue
            assert_valid(topo, PARTITIONERS[name](topo, shards), shards)

    def test_single_shard_owns_everything(self):
        topo = Torus((4, 4))
        for partition in PARTITIONERS.values():
            assert partition(topo, 1) == [list(topo.nodes())]

    def test_shards_exceeding_nodes_rejected(self):
        with pytest.raises(SimulationError, match="shard"):
            partition_strip(Line(4), 5)

    def test_zero_shards_rejected(self):
        with pytest.raises(SimulationError, match="shards must be >= 1"):
            partition_strip(Line(4), 0)


class TestEdgeCut:
    def test_edge_cut_counts_crossing_links_once(self):
        # a 4-ring split into halves {0,1} {2,3} cuts exactly the two
        # links 1-2 and 3-0
        assert edge_cut(Ring(4), [[0, 1], [2, 3]]) == 2

    def test_strip_cut_on_torus_rows(self):
        # strips of a 4x4 torus are whole rows: each boundary contributes
        # 4 vertical links and the wrap-around adds the last<->first rows
        topo = Torus((4, 4))
        parts = partition_strip(topo, 4)
        assert edge_cut(topo, parts) == 16


class TestDeterminism:
    def test_all_partitioners_are_pure_functions(self):
        topo = Grid((5, 7))
        for partition in PARTITIONERS.values():
            assert partition(topo, 3) == partition(topo, 3)

    def test_strip_ranges_are_contiguous_larger_first(self):
        assert partition_strip(Grid((5, 7)), 3) == [
            list(range(0, 12)), list(range(12, 24)), list(range(24, 35))
        ]


class TestDegenerateTopologies:
    """1-node, single-row, and fully-connected machines.

    These shapes have no second grid axis, no more nodes than shards, or
    no sparse neighbourhood — and are exactly where the conformance
    fuzzer's hand-picked corpus lives.
    """

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("topo", [Line(1), Ring(1)], ids=["line1", "ring1"])
    def test_one_node_one_shard(self, name, topo):
        parts = PARTITIONERS[name](topo, 1)
        assert parts == [[0]]
        assert edge_cut(topo, parts) == 0

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    def test_one_node_cannot_split(self, name):
        with pytest.raises(SimulationError, match="1 nodes into 2 shards"):
            PARTITIONERS[name](Line(1), 2)

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_single_row_grid(self, name, shards):
        topo = Grid((1, 8))
        assert_valid(topo, PARTITIONERS[name](topo, shards), shards)

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_fully_connected(self, name, shards):
        # every split of a complete graph cuts the same number of links;
        # balance and validity are all a partition can offer here
        topo = FullyConnected(7)
        parts = PARTITIONERS[name](topo, shards)
        assert_valid(topo, parts, shards)
        total = topo.n_nodes
        within = sum(len(p) * (len(p) - 1) // 2 for p in parts)
        assert edge_cut(topo, parts) == total * (total - 1) // 2 - within

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    def test_degenerate_shapes_are_deterministic(self, name):
        partition = PARTITIONERS[name]
        for topo in (Line(1), Grid((1, 8)), FullyConnected(7)):
            shards = min(3, topo.n_nodes)
            assert partition(topo, shards) == partition(topo, shards)
