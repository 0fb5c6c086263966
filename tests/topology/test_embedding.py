"""Tests for Gray codes and hypercube embeddings (paper §II-A refs [14]-[16]).

The module lives in ``examples/zoo/embedding.py``; the conftest puts
``examples/`` on ``sys.path``, so it imports as ``zoo.embedding``.
"""

import pytest

from repro.errors import TopologyError
from repro.topology import CompleteTree, Grid, Hypercube, Ring, Torus
from zoo.embedding import (
    Embedding,
    embed_grid_in_hypercube,
    embed_ring_in_hypercube,
    embed_tree_in_hypercube,
    gray_code,
    gray_rank,
    is_valid_embedding,
)


class TestGrayCode:
    def test_first_codes(self):
        assert [gray_code(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_consecutive_codes_differ_by_one_bit(self):
        for i in range(255):
            assert (gray_code(i) ^ gray_code(i + 1)).bit_count() == 1

    def test_wraparound_differs_by_one_bit(self):
        for n_bits in (2, 3, 4, 6):
            top = (1 << n_bits) - 1
            assert (gray_code(0) ^ gray_code(top)).bit_count() == 1

    def test_gray_rank_inverse(self):
        for i in range(512):
            assert gray_rank(gray_code(i)) == i

    def test_bijective_over_range(self):
        codes = {gray_code(i) for i in range(64)}
        assert codes == set(range(64))

    def test_negative_rejected(self):
        with pytest.raises(TopologyError):
            gray_code(-1)
        with pytest.raises(TopologyError):
            gray_rank(-1)


class TestEmbeddingObject:
    def test_identity_embedding(self):
        h = Hypercube(3)
        e = Embedding(h, h, list(range(8)))
        assert e.dilation() == 1
        assert e.expansion() == 1.0

    def test_non_injective_rejected(self):
        h = Hypercube(2)
        r = Ring(4)
        with pytest.raises(TopologyError):
            Embedding(r, h, [0, 1, 1, 2])

    def test_wrong_size_rejected(self):
        with pytest.raises(TopologyError):
            Embedding(Ring(4), Hypercube(2), [0, 1, 2])

    def test_is_valid_embedding(self):
        assert is_valid_embedding(Ring(4), Hypercube(2), [0, 1, 3, 2])
        assert not is_valid_embedding(Ring(4), Hypercube(2), [0, 0, 3, 2])

    def test_average_dilation(self):
        r = Ring(4)
        h = Hypercube(2)
        e = Embedding(r, h, [0, 1, 3, 2])
        assert e.average_dilation() == 1.0


class TestRingEmbedding:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_full_ring_dilation_one(self, dim):
        ring = Ring(2**dim)
        cube = Hypercube(dim)
        assert embed_ring_in_hypercube(ring, cube).dilation() == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            embed_ring_in_hypercube(Ring(6), Hypercube(3))


class TestGridEmbedding:
    def test_square_grid_dilation_one(self):
        g = Grid((4, 4))
        assert embed_grid_in_hypercube(g, Hypercube(4)).dilation() == 1

    def test_rect_grid_dilation_one(self):
        g = Grid((2, 8))
        assert embed_grid_in_hypercube(g, Hypercube(4)).dilation() == 1

    def test_torus_dilation_one(self):
        t = Torus((4, 4))
        assert embed_grid_in_hypercube(t, Hypercube(4)).dilation() == 1

    def test_3d_grid(self):
        g = Grid((2, 2, 4))
        assert embed_grid_in_hypercube(g, Hypercube(4)).dilation() == 1

    def test_non_power_of_two_rejected(self):
        with pytest.raises(TopologyError):
            embed_grid_in_hypercube(Grid((3, 4)), Hypercube(4))

    def test_wrong_cube_size_rejected(self):
        with pytest.raises(TopologyError):
            embed_grid_in_hypercube(Grid((4, 4)), Hypercube(5))


class TestTreeEmbedding:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_binary_tree_dilation_at_most_two(self, dim):
        tree = CompleteTree(2, dim)
        cube = Hypercube(dim)
        e = embed_tree_in_hypercube(tree, cube)
        assert e.dilation() <= 2

    def test_uses_all_but_one_node(self):
        tree = CompleteTree(2, 4)
        e = embed_tree_in_hypercube(tree, Hypercube(4))
        assert 0 not in e.mapping  # address 0 stays unused
        assert len(set(e.mapping)) == 15

    def test_non_binary_rejected(self):
        with pytest.raises(TopologyError):
            embed_tree_in_hypercube(CompleteTree(3, 3), Hypercube(4))

    def test_size_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            embed_tree_in_hypercube(CompleteTree(2, 3), Hypercube(4))
