import pytest
from hypothesis import given
import hypothesis.strategies as st

from cliquebound.cliques import (
    BudgetExceeded,
    _degeneracy_order,
    clique_weight_sum,
    count_cliques,
    largest_clique_orders,
    vertex_clique_numbers,
)
from cliquebound.graph import Graph, bits
from cliquebound.oracles import (
    brute_count_cliques,
    brute_kirsch_nir_alpha,
    brute_vertex_clique_numbers,
)
from strategies import graphs


class TestCountCliques:
    def test_k4_edges(self, k4):
        assert count_cliques(k4, 2) == 6

    def test_octahedron_triangles(self, octa):
        # value frozen from the brute-force subset oracle
        assert count_cliques(octa, 3) == 8
        assert brute_count_cliques(octa, 3) == 8

    def test_c5_triangle_free(self, c5):
        assert count_cliques(c5, 3) == 0

    def test_t_one_counts_vertices(self, c5):
        assert count_cliques(c5, 1) == 5

    def test_t_above_n(self, k4):
        assert count_cliques(k4, 5) == 0

    def test_t_below_one_rejected(self, k4):
        with pytest.raises(ValueError):
            count_cliques(k4, 0)

    @given(graphs(), st.integers(min_value=1, max_value=8))
    def test_matches_oracle(self, g, t):
        assert count_cliques(g, t) == brute_count_cliques(g, t)


class TestVertexCliqueNumbers:
    def test_c5(self, c5):
        p = vertex_clique_numbers(c5)
        assert p.c == (2,) * 5 and p.omega == 2

    def test_k4(self, k4):
        p = vertex_clique_numbers(k4)
        assert p.c == (4,) * 4 and p.omega == 4

    def test_paw(self, paw):
        # frozen from the brute-force oracle
        assert vertex_clique_numbers(paw).c == (3, 3, 3, 2)

    def test_isolated_vertices_get_one(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert vertex_clique_numbers(g).c == (2, 2, 1, 1)

    def test_empty_graph(self):
        p = vertex_clique_numbers(Graph(0, ()))
        assert p.c == () and p.omega == 0

    @given(graphs())
    def test_matches_oracle(self, g):
        assert vertex_clique_numbers(g) == brute_vertex_clique_numbers(g)

    @given(graphs(min_n=1))
    def test_profile_invariants(self, g):
        p = vertex_clique_numbers(g)
        assert max(p.c) == p.omega
        for v, c in enumerate(p.c):
            assert 1 <= c <= p.omega
            assert (c == 1) == (g.degree(v) == 0)

    @given(graphs(min_n=2))
    def test_edge_deletion_never_increases(self, g):
        edges = list(g.edges())
        if not edges:
            return
        before = vertex_clique_numbers(g).c
        u, v = edges[0]
        smaller = Graph.from_edges(g.n, edges[1:])
        after = vertex_clique_numbers(smaller).c
        assert all(a <= b for a, b in zip(after, before))


class TestMaxCliqueContaining:
    """largest_clique_orders maps each t-clique's bitmask to the order of the
    largest clique containing it."""

    def test_k4_edge(self, k4):
        assert largest_clique_orders(k4, 2)[0b0011] == 4

    def test_paw_pendant(self, paw):
        assert largest_clique_orders(paw, 1)[1 << 3] == 2

    def test_c5_edge(self, c5):
        assert largest_clique_orders(c5, 2)[0b00011] == 2

    def test_non_clique_rejected(self, c5):
        assert 0b00101 not in largest_clique_orders(c5, 2)
        with pytest.raises(ValueError):
            largest_clique_orders(c5, 0)

    @given(graphs(), st.integers(min_value=1, max_value=4))
    def test_matches_oracle(self, g, t):
        orders = largest_clique_orders(g, t)
        assert len(orders) == brute_count_cliques(g, t)
        for key, alpha in orders.items():
            assert alpha == brute_kirsch_nir_alpha(g, tuple(bits(key)))


def _neighborhood_count(g, v, t):
    """Number of t-cliques inside N(v), as a unit-weight clique sum."""
    return clique_weight_sum(g, g.adjacency[v], t, (1,) * g.n)


class TestNeighborhoodCounts:
    def test_k4(self, k4):
        assert _neighborhood_count(k4, 0, 2) == 3

    def test_c5(self, c5):
        assert _neighborhood_count(c5, 0, 2) == 0

    def test_octahedron(self, octa):
        # N(0) induces a 4-cycle; frozen from brute force over its 6 pairs
        assert _neighborhood_count(octa, 0, 2) == 4

    @given(graphs(min_n=1), st.integers(min_value=2, max_value=6))
    def test_handshake_identity(self, g, t):
        total = sum(_neighborhood_count(g, v, t - 1) for v in range(g.n))
        assert total == t * count_cliques(g, t)


def _scan_degeneracy_order(adj, mask):
    """Reference: repeatedly remove a minimum-degree vertex, lowest index first."""
    order = []
    while mask:
        v = min(bits(mask), key=lambda u: ((adj[u] & mask).bit_count(), u))
        order.append(v)
        mask &= ~(1 << v)
    return order


class TestDegeneracyOrder:
    @given(graphs(max_n=14), st.integers(min_value=0))
    def test_matches_scan(self, g, sub):
        mask = sub & g.full_mask
        for m in (g.full_mask, mask):
            assert _degeneracy_order(g.adjacency, m) == _scan_degeneracy_order(g.adjacency, m)


class TestEnumerationAndBudget:
    def test_enumerate_matches_count(self, octa):
        orders = largest_clique_orders(octa, 3)
        assert len(orders) == 8
        assert all(key.bit_count() == 3 and alpha == 3 for key, alpha in orders.items())

    def test_budget_exceeded(self):
        g = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        with pytest.raises(BudgetExceeded):
            vertex_clique_numbers(g, budget=1)
        with pytest.raises(BudgetExceeded):
            count_cliques(g, 3, budget=1)
