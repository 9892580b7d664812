from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cliquebound.bounds import (
    bound_report,
    complete_multipartite_parts,
    edge_localized_turan_sum,
    is_regular_complete_multipartite,
    kirsch_nir_sum,
    localized_zykov_bound,
    turan_bound,
    vertex_localized_turan_bound,
    zykov_bound,
)
from cliquebound.cliques import count_cliques, vertex_clique_numbers
from cliquebound.corpus import complete_graph, empty_graph, star_graph
from cliquebound.graph import Graph, generate_complete_multipartite
from strategies import graphs


class TestLocalizedZykov:
    def test_octahedron_tight_t3(self, octa):
        p = vertex_clique_numbers(octa)
        assert localized_zykov_bound(octa, 3, p) == 8
        assert count_cliques(octa, 3) == 8

    def test_c5_t2(self, c5):
        p = vertex_clique_numbers(c5)
        assert localized_zykov_bound(c5, 2, p) == Fraction(25, 4)
        assert c5.m < Fraction(25, 4)

    def test_k4_t2_tight(self, k4):
        p = vertex_clique_numbers(k4)
        assert localized_zykov_bound(k4, 2, p) == 6 == k4.m

    def test_t_below_two_rejected(self, k4):
        with pytest.raises(ValueError):
            localized_zykov_bound(k4, 1, vertex_clique_numbers(k4))


class TestClassicalBounds:
    def test_zykov_values(self):
        assert zykov_bound(6, 3, 3) == 8
        assert zykov_bound(4, 4, 2) == 6
        assert zykov_bound(10, 2, 3) == 0  # binomial vanishes for t > r

    def test_turan_values(self):
        assert turan_bound(6, 3) == 12
        assert turan_bound(9, 1) == 0

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=12))
    def test_turan_is_zykov_at_t2(self, n, r):
        assert turan_bound(n, r) == zykov_bound(n, r, 2)


class TestEdgeLocalized:
    def test_k4_tight(self, k4):
        assert edge_localized_turan_sum(k4) == 8 == Fraction(16, 2)

    def test_c5_strict(self, c5):
        assert edge_localized_turan_sum(c5) == 10 < Fraction(25, 2)

    def test_empty(self):
        assert edge_localized_turan_sum(empty_graph(4)) == 0

    @given(graphs())
    def test_at_most_half_n_squared(self, g):
        assert edge_localized_turan_sum(g) <= Fraction(g.n**2, 2)


class TestVertexLocalizedTuran:
    def test_c5(self, c5):
        assert vertex_localized_turan_bound(c5, vertex_clique_numbers(c5)) == 6

    def test_k4(self, k4):
        assert vertex_localized_turan_bound(k4, vertex_clique_numbers(k4)) == 6 == k4.m

    @given(graphs(min_n=1))
    def test_pre_floor_equals_localized_t2(self, g):
        # algebraic identity: C(c,2)/c^2 = (c-1)/(2c)
        p = vertex_clique_numbers(g)
        pre_floor = Fraction(g.n, 2) * sum(Fraction(c - 1, c) for c in p.c)
        assert pre_floor == localized_zykov_bound(g, 2, p)
        assert g.m <= vertex_localized_turan_bound(g, p)


class TestKirschNir:
    def test_k4_equality(self, k4):
        assert kirsch_nir_sum(k4, 2) == 16 == 4**2

    def test_c5_strict(self, c5):
        assert kirsch_nir_sum(c5, 2) == 20 < 25

    def test_triangle_free_t3(self, c5):
        assert kirsch_nir_sum(c5, 3) == 0

    @given(graphs(), st.integers(min_value=2, max_value=5))
    def test_at_most_n_to_t(self, g, t):
        assert kirsch_nir_sum(g, t) <= g.n**t


class TestMultipartiteRecognition:
    def test_octahedron(self, octa):
        assert is_regular_complete_multipartite(octa).sizes == (2, 2, 2)

    def test_c5_absent(self, c5):
        assert is_regular_complete_multipartite(c5) is None

    def test_unbalanced_star_absent(self):
        assert is_regular_complete_multipartite(star_graph(2)) is None
        assert complete_multipartite_parts(star_graph(2)).sizes == (1, 2)

    def test_complete_graph(self):
        assert is_regular_complete_multipartite(complete_graph(4)).sizes == (1,) * 4

    def test_edgeless_single_part(self):
        assert is_regular_complete_multipartite(empty_graph(3)).sizes == (3,)

    def test_n_zero(self):
        assert is_regular_complete_multipartite(Graph(0, ())) is None


class TestBoundReport:
    def test_octahedron_tight(self, octa):
        rep = bound_report(octa, 3)
        assert rep.true_count == 8
        assert rep.localized_zykov == 8
        assert rep.is_tight
        assert rep.extremal_certificate.sizes == (2, 2, 2)

    def test_c5_strict(self, c5):
        rep = bound_report(c5, 2)
        assert not rep.is_tight
        assert rep.extremal_certificate is None
        assert rep.turan == Fraction(25, 4)

    def test_empty_graph_trivially_tight(self):
        rep = bound_report(empty_graph(3), 2)
        assert rep.true_count == 0
        assert rep.localized_zykov == 0
        assert rep.is_tight

    def test_n_zero(self):
        rep = bound_report(Graph(0, ()), 2)
        assert rep.is_tight and rep.true_count == 0

    @given(graphs(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60)
    def test_soundness_and_dominance(self, g, t):
        rep = bound_report(g, t)
        assert Fraction(rep.true_count) <= rep.localized_zykov
        if g.n > 0:
            assert rep.localized_zykov <= rep.zykov_classical

    @pytest.mark.parametrize("sizes", [[2, 2], [3, 3], [2, 2, 2], [1, 1, 1, 1]])
    def test_generated_multipartite_tight_up_to_omega(self, sizes):
        g = generate_complete_multipartite(sizes)
        omega = len(sizes)
        for t in range(2, omega + 1):
            assert bound_report(g, t).is_tight

    def test_perturbing_one_edge_breaks_tightness(self, octa):
        edges = [e for e in octa.edges() if e != (0, 2)]
        g = Graph.from_edges(6, edges)
        assert is_regular_complete_multipartite(g) is None
        assert not bound_report(g, 2).is_tight

    @pytest.mark.parametrize("sizes", [[2, 2], [2, 2, 2], [3, 3, 3]])
    def test_edge_localized_equality_on_regular_multipartite(self, sizes):
        g = generate_complete_multipartite(sizes)
        assert edge_localized_turan_sum(g) == Fraction(g.n**2, 2)


def test_localizations_are_independent_fixture():
    # Regression: a case where the vertex-localized bound is tight while the
    # per-copy weighted sum stays strictly below its own n^t cap.
    g = generate_complete_multipartite([2, 2])
    t = 3
    rep = bound_report(g, t)
    assert rep.is_tight  # both sides vanish: no K_3 and c(v) = 2 < t
    assert rep.kirsch_nir_sum < g.n**t
