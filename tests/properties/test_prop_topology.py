"""Property-based tests for topology invariants (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.topology import FullyConnected, Grid, Hypercube, Ring, Torus
from zoo.embedding import gray_code, gray_rank

dims2d = st.tuples(st.integers(2, 8), st.integers(2, 8))
dims3d = st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))
any_dims = st.one_of(dims2d, dims3d)


@given(any_dims)
def test_torus_neighbour_symmetry(dims):
    t = Torus(dims)
    for a in t.nodes():
        for b in t.neighbours(a):
            assert a in t.neighbours(b)


@given(any_dims)
def test_torus_coordinate_roundtrip(dims):
    t = Torus(dims)
    for n in t.nodes():
        assert t.node_at(t.coords(n)) == n


@given(any_dims, st.data())
def test_torus_distance_triangle_inequality(dims, data):
    t = Torus(dims)
    a = data.draw(st.integers(0, t.n_nodes - 1))
    b = data.draw(st.integers(0, t.n_nodes - 1))
    c = data.draw(st.integers(0, t.n_nodes - 1))
    assert t.distance(a, c) <= t.distance(a, b) + t.distance(b, c)


@given(any_dims, st.data())
def test_torus_distance_symmetric_and_positive(dims, data):
    t = Torus(dims)
    a = data.draw(st.integers(0, t.n_nodes - 1))
    b = data.draw(st.integers(0, t.n_nodes - 1))
    d = t.distance(a, b)
    assert d == t.distance(b, a)
    assert (d == 0) == (a == b)
    assert d <= t.diameter()


@given(any_dims, st.data())
def test_torus_adjacent_iff_distance_one(dims, data):
    t = Torus(dims)
    a = data.draw(st.integers(0, t.n_nodes - 1))
    b = data.draw(st.integers(0, t.n_nodes - 1))
    assert t.is_adjacent(a, b) == (t.distance(a, b) == 1)


@given(any_dims)
def test_grid_distance_never_below_torus(dims):
    # removing wrap links can only lengthen shortest paths
    g, t = Grid(dims), Torus(dims)
    for a in range(0, g.n_nodes, max(1, g.n_nodes // 7)):
        for b in range(0, g.n_nodes, max(1, g.n_nodes // 5)):
            assert g.distance(a, b) >= t.distance(a, b)


@given(st.integers(1, 9))
def test_hypercube_gray_neighbour_walk(dim):
    h = Hypercube(dim)
    # the Gray-code sequence walks adjacent nodes (a Hamiltonian cycle)
    for i in range(h.n_nodes):
        a = gray_code(i)
        b = gray_code((i + 1) % h.n_nodes)
        if a != b:
            assert h.is_adjacent(a, b)


@given(st.integers(0, 10**6))
def test_gray_code_bijection(i):
    assert gray_rank(gray_code(i)) == i


@given(st.integers(2, 60))
def test_ring_distance_formula(n):
    r = Ring(n)
    for a in range(0, n, max(1, n // 6)):
        for b in range(0, n, max(1, n // 4)):
            delta = abs(a - b)
            assert r.distance(a, b) == min(delta, n - delta)


@given(st.integers(2, 40))
def test_fully_connected_handshake(n):
    f = FullyConnected(n)
    assert f.n_links() == n * (n - 1) // 2
    assert sum(f.degree(v) for v in f.nodes()) == 2 * f.n_links()


@given(any_dims)
@settings(max_examples=20)
def test_torus_edges_counted_once(dims):
    t = Torus(dims)
    edges = list(t.edges())
    assert len(edges) == len(set(edges))
    assert sum(t.degree(n) for n in t.nodes()) == 2 * len(edges)
