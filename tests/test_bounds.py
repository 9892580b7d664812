from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb, floor

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from cliquebound.bounds import (
    BoundReport,
    InvariantError,
    bound_report,
    bound_reports,
    check_report,
    clique_density_term,
    complete_multipartite_parts,
    edge_localized_turan_sum,
    is_regular_complete_multipartite,
    kirsch_nir_sum,
    localized_zykov_bound,
    outcome,
    turan_bound,
    vertex_localized_turan_bound,
    zykov_bound,
)
from cliquebound.cliques import CliqueIndex, count_cliques
from cliquebound.corpus import (
    complete_graph,
    empty_graph,
    regular_multipartite_family,
    star_graph,
)
from cliquebound.graph import Graph, generate_complete_multipartite, generate_random
from cliquebound.oracles import (
    brute_count_cliques,
    brute_kirsch_nir_alpha,
    brute_vertex_clique_numbers,
)
from strategies import graphs


def brute_multipartite_sizes(g: Graph) -> tuple[int, ...] | None:
    """Class sizes of "u = v or u, v non-adjacent", ordered by lowest vertex,
    when that relation is transitive (G complete multipartite); else None."""
    def related(u, v):
        return u == v or not g.has_edge(u, v)

    for u, v, w in product(range(g.n), repeat=3):
        if related(u, v) and related(v, w) and not related(u, w):
            return None
    classes: list[list[int]] = []
    for v in range(g.n):
        for cls in classes:
            if related(cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])
    return tuple(len(cls) for cls in classes)


@st.composite
def relabelled_multipartite(draw):
    """A complete multipartite graph under a random vertex permutation,
    sometimes with one vertex pair flipped."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
    g = generate_complete_multipartite(sizes)
    perm = draw(st.permutations(range(g.n)))
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()}
    if g.n >= 2 and draw(st.booleans()):
        pair = draw(st.lists(st.integers(min_value=0, max_value=g.n - 1),
                             min_size=2, max_size=2, unique=True))
        edges ^= {tuple(sorted(pair))}
    return Graph.from_edges(g.n, edges)


class TestLocalizedZykov:
    def test_octahedron_tight_t3(self, octa):
        index = CliqueIndex(octa)
        assert localized_zykov_bound(index, 3) == 8
        assert count_cliques(index, 3) == 8

    def test_c5_t2(self, c5):
        assert localized_zykov_bound(CliqueIndex(c5), 2) == Fraction(25, 4)
        assert c5.m < Fraction(25, 4)

    def test_k4_t2_tight(self, k4):
        assert localized_zykov_bound(CliqueIndex(k4), 2) == 6 == k4.m

    def test_t_below_two_rejected(self, k4):
        with pytest.raises(ValueError):
            localized_zykov_bound(CliqueIndex(k4), 1)


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

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_zykov_is_zero_on_the_empty_graph(self, t):
        assert zykov_bound(0, 0, t) == 0

    def test_turan_is_zero_on_the_empty_graph(self):
        assert turan_bound(0, 0) == 0

    @pytest.mark.parametrize("call, message", [
        (lambda: clique_density_term(0, 2), "clique order must be >= 1, got 0"),
        (lambda: zykov_bound(4, 2, 1), "clique order t must be >= 2, got 1"),
    ], ids=["density-term", "zykov-t"])
    def test_order_errors(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert (exc.type, str(exc.value)) == (ValueError, message)

    def test_zero_clique_order_needs_the_empty_graph(self):
        with pytest.raises(ValueError, match="r must be >= 1, got 0"):
            zykov_bound(5, 0, 2)
        with pytest.raises(ValueError, match="r must be >= 1, got 0"):
            turan_bound(5, 0)


class TestEdgeLocalized:
    def test_k4_tight(self, k4):
        assert edge_localized_turan_sum(CliqueIndex(k4)) == 8 == Fraction(16, 2)

    def test_c5_strict(self, c5):
        assert edge_localized_turan_sum(CliqueIndex(c5)) == 10 < Fraction(25, 2)

    def test_empty(self):
        assert edge_localized_turan_sum(CliqueIndex(empty_graph(4))) == 0

    @given(graphs())
    def test_at_most_half_n_squared(self, g):
        assert edge_localized_turan_sum(CliqueIndex(g)) <= Fraction(g.n**2, 2)


class TestVertexLocalizedTuran:
    def test_c5(self, c5):
        assert vertex_localized_turan_bound(CliqueIndex(c5)) == 6

    def test_k4(self, k4):
        assert vertex_localized_turan_bound(CliqueIndex(k4)) == 6 == k4.m

    @given(graphs(min_n=1))
    def test_pre_floor_equals_localized_t2(self, g):
        # algebraic identity: C(c,2)/c^2 = (c-1)/(2c)
        index = CliqueIndex(g)
        pre_floor = Fraction(g.n, 2) * sum(Fraction(c - 1, c) for c in index.c)
        assert pre_floor == localized_zykov_bound(index, 2)
        assert g.m <= vertex_localized_turan_bound(index)


class TestKirschNir:
    def test_k4_equality(self, k4):
        assert kirsch_nir_sum(CliqueIndex(k4), 2) == 16 == 4**2

    def test_c5_strict(self, c5):
        assert kirsch_nir_sum(CliqueIndex(c5), 2) == 20 < 25

    def test_triangle_free_t3(self, c5):
        assert kirsch_nir_sum(CliqueIndex(c5), 3) == 0

    @given(graphs(), st.integers(min_value=2, max_value=5))
    def test_at_most_n_to_t(self, g, t):
        assert kirsch_nir_sum(CliqueIndex(g), t) <= g.n**t

    def test_t_below_two_rejected(self, k4):
        with pytest.raises(ValueError) as exc:
            kirsch_nir_sum(CliqueIndex(k4), 1)
        assert (exc.type, str(exc.value)) == (ValueError, "clique order t must be >= 2, got 1")


class TestMultipartiteRecognition:
    def test_octahedron(self, octa):
        assert is_regular_complete_multipartite(octa) == (2, 2, 2)

    def test_c5_absent(self, c5):
        assert is_regular_complete_multipartite(c5) is None

    def test_unbalanced_star_absent(self):
        assert is_regular_complete_multipartite(star_graph(2)) is None
        assert complete_multipartite_parts(star_graph(2)) == (1, 2)

    def test_complete_graph(self):
        assert is_regular_complete_multipartite(complete_graph(4)) == (1,) * 4

    def test_edgeless_single_part(self):
        assert is_regular_complete_multipartite(empty_graph(3)) == (3,)

    def test_n_zero(self):
        assert is_regular_complete_multipartite(Graph(0, ())) is None

    @given(st.one_of(graphs(), relabelled_multipartite()))
    def test_matches_definition(self, g):
        expected = brute_multipartite_sizes(g) or None  # n = 0 has no parts
        assert complete_multipartite_parts(g) == expected
        assert is_regular_complete_multipartite(g) == (
            expected if expected and len(set(expected)) == 1 else None
        )


class TestBoundReport:
    def test_octahedron_tight(self, octa):
        rep = bound_report(CliqueIndex(octa), 3)
        assert rep.true_count == 8
        assert rep.localized_zykov == 8
        assert rep.is_tight
        assert rep.extremal_certificate == (2, 2, 2)

    def test_c5_strict(self, c5):
        rep = bound_report(CliqueIndex(c5), 2)
        assert not rep.is_tight
        assert rep.extremal_certificate is None
        assert rep.turan == Fraction(25, 4)

    def test_empty_graph_trivially_tight(self):
        rep = bound_report(CliqueIndex(empty_graph(3)), 2)
        assert rep.true_count == 0
        assert rep.localized_zykov == 0
        assert rep.is_tight

    def test_n_zero(self):
        rep = bound_report(CliqueIndex(Graph(0, ())), 2)
        assert rep.is_tight and rep.true_count == 0

    def test_outcome(self, octa, c5):
        # t > omega is vacuous, though N = bound = 0 leaves the flag true.
        octa_index, c5_index = CliqueIndex(octa), CliqueIndex(c5)
        assert [bound_report(octa_index, t).outcome for t in (3, 4)] == ["tight", "vacuous"]
        assert [bound_report(c5_index, t).outcome for t in (2, 3)] == ["strict", "vacuous"]
        assert bound_report(c5_index, 3).is_tight
        assert bound_report(CliqueIndex(Graph(0, ())), 2).outcome == "vacuous"
        assert [outcome(3, 3, True), outcome(3, 3, False), outcome(4, 3, False)] == [
            "tight", "strict", "vacuous"]

    @given(graphs(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60)
    def test_soundness_and_dominance(self, g, t):
        rep = bound_report(CliqueIndex(g), t)
        assert Fraction(rep.true_count) <= rep.localized_zykov
        if g.n > 0:
            assert rep.localized_zykov <= rep.zykov_classical

    @pytest.mark.parametrize("sizes", [[2, 2], [3, 3], [2, 2, 2], [1, 1, 1, 1]])
    def test_generated_multipartite_tight_up_to_omega(self, sizes):
        g = generate_complete_multipartite(sizes)
        index = CliqueIndex(g)
        omega = len(sizes)
        for t in range(2, omega + 1):
            assert bound_report(index, t).is_tight

    def test_perturbing_one_edge_breaks_tightness(self, octa):
        edges = [e for e in octa.edges() if e != (0, 2)]
        g = Graph.from_edges(6, edges)
        assert is_regular_complete_multipartite(g) is None
        assert not bound_report(CliqueIndex(g), 2).is_tight

    @pytest.mark.parametrize("sizes", [[2, 2], [2, 2, 2], [3, 3, 3]])
    def test_edge_localized_equality_on_regular_multipartite(self, sizes):
        g = generate_complete_multipartite(sizes)
        assert edge_localized_turan_sum(CliqueIndex(g)) == Fraction(g.n**2, 2)


def brute_reports(g: Graph, ts) -> list[BoundReport]:
    """Every report value from the brute-force oracles and the formulas."""
    n, profile = g.n, brute_vertex_clique_numbers(g)
    omega = profile.omega

    def alphas(t):
        return [brute_kirsch_nir_alpha(g, copy) for copy in combinations(range(n), t)
                if all(g.has_edge(u, v) for u, v in combinations(copy, 2))]

    edge_sum = sum((Fraction(w, w - 1) for w in alphas(2)), Fraction(0))
    vertex_turan = Fraction(n, 2) * sum((Fraction(c - 1, c) for c in profile.c), Fraction(0))
    turan = Fraction(n * n * (omega - 1), 2 * omega) if n else Fraction(0)
    reports = []
    for t in ts:
        count = brute_count_cliques(g, t)
        localized = n ** (t - 1) * sum((Fraction(comb(c, t), c**t) for c in profile.c),
                                       Fraction(0))
        reports.append(BoundReport(
            t=t, n=n, m=g.m, omega=omega, true_count=count,
            localized_zykov=localized,
            zykov_classical=comb(omega, t) * Fraction(n, omega) ** t if n else Fraction(0),
            turan=turan if t == 2 else None,
            edge_localized_sum=edge_sum,
            vertex_localized_turan=vertex_turan.numerator // vertex_turan.denominator,
            kirsch_nir_sum=sum((Fraction(a**t, comb(a, t)) for a in alphas(t)), Fraction(0)),
            is_tight=count == localized,
            extremal_certificate=is_regular_complete_multipartite(g),
        ))
    return reports


class TestBoundReports:
    @given(graphs())
    @example(Graph(0, ()))
    @example(Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)]))  # isolated vertices, t > omega
    @example(generate_complete_multipartite([2, 2, 2]))
    @settings(max_examples=60)
    def test_matches_oracles(self, g):
        assert bound_reports(CliqueIndex(g), range(2, 6)) == brute_reports(g, range(2, 6))

    def test_t_below_two_rejected(self, c5):
        with pytest.raises(ValueError):
            bound_reports(CliqueIndex(c5), [2, 1])

    def test_named_functions_reuse_the_walks(self):
        # The reports run one walk for all their orders, and the index keeps
        # its histograms: the named functions then charge no further work.
        g = generate_random(12, Fraction(1, 2), seed=5)
        index = CliqueIndex(g)
        reports = bound_reports(index, (2, 3, 4))
        nodes = index.nodes
        one_walk = CliqueIndex(g)
        one_walk.histograms({2, 3, 4})
        assert nodes == one_walk.nodes
        for rep in reports:
            assert count_cliques(index, rep.t) == rep.true_count
            assert kirsch_nir_sum(index, rep.t) == rep.kirsch_nir_sum
            assert edge_localized_turan_sum(index) == rep.edge_localized_sum
            assert bound_report(index, rep.t) == rep
        assert index.nodes == nodes


def test_localizations_are_independent_fixture():
    # Regression: a case where the vertex-localized bound is tight while the
    # per-copy weighted sum stays strictly below its own n^t cap.
    g = generate_complete_multipartite([2, 2])
    t = 3
    rep = bound_report(CliqueIndex(g), t)
    assert rep.is_tight  # both sides vanish: no K_3 and c(v) = 2 < t
    assert rep.kirsch_nir_sum < g.n**t


# One corruption per relation: (t, field, the corrupted value from the real
# report, the relation named). The octahedron K_{2x3} meets every relation
# with equality at t = 2 (N = localized = zykov = 12, Kirsch-Nir = n^2 = 36,
# edge sum = n^2/2 = 18, m = vertex_localized_turan = 12), so a nudge of one
# field past its bound breaks that relation alone. The m relation is broken
# at t = 3, where vertex_localized_turan is not held to the floor of the
# bound at t.
CORRUPTIONS = [
    (2, "true_count", lambda r: r.true_count + 1, "N <= localized"),
    (3, "true_count", lambda r: floor(r.localized_zykov) + 1, "N <= localized"),
    (2, "zykov_classical", lambda r: r.localized_zykov - Fraction(1, 3),
     "localized <= zykov"),
    (3, "kirsch_nir_sum", lambda r: Fraction(r.n**3 + 1), "kirsch_nir_sum <= n^t"),
    (2, "edge_localized_sum", lambda r: r.edge_localized_sum + Fraction(1, 7),
     "edge_localized_sum <= n^2/2"),
    (3, "vertex_localized_turan", lambda r: r.m - 1, "m <= vertex_localized_turan"),
    (2, "vertex_localized_turan", lambda r: r.vertex_localized_turan + 1,
     "vertex_localized_turan = floor(localized)"),
    (2, "extremal_certificate", lambda r: None, "tightness"),
    (3, "is_tight", lambda r: False, "tightness"),
]


class TestCheckReport:
    @pytest.mark.parametrize("t,field,corrupt,relation", CORRUPTIONS,
                             ids=[f"{c[1]}-t{c[0]}" for c in CORRUPTIONS])
    def test_each_corruption_names_its_relation(self, octa, t, field, corrupt, relation):
        rep = bound_report(CliqueIndex(octa), t)
        check_report(rep)
        with pytest.raises(InvariantError) as exc:
            check_report(replace(rep, **{field: corrupt(rep)}))
        assert (exc.value.t, exc.value.relation) == (t, relation)
        assert str(exc.value).startswith(relation)

    def test_message_gives_the_values(self, octa):
        rep = bound_report(CliqueIndex(octa), 3)
        with pytest.raises(InvariantError,
                           match=r"^N <= localized fails: N = 1000008, localized = 8/1$"):
            check_report(replace(rep, true_count=rep.true_count + 10**6))

    def test_relations_hold_with_equality_on_the_octahedron(self, octa):
        # The corruptions above nudge each value just past its bound; this
        # holds the premise that the real values sit on it.
        rep = bound_report(CliqueIndex(octa), 2)
        assert (rep.true_count, rep.localized_zykov, rep.zykov_classical) == (12, 12, 12)
        assert (rep.kirsch_nir_sum, rep.edge_localized_sum) == (36, 18)
        assert rep.m == rep.vertex_localized_turan == floor(rep.localized_zykov)

    def test_is_an_assertion_error(self):
        # A caller that catches AssertionError, as a test runner does, sees it.
        assert issubclass(InvariantError, AssertionError)

    @given(graphs(), st.integers(min_value=2, max_value=6))
    @settings(max_examples=80)
    def test_no_false_positive(self, g, t):
        for rep in bound_reports(CliqueIndex(g), range(2, t + 1)):
            check_report(rep)

    @pytest.mark.parametrize("g", [empty_graph(0), complete_graph(1)], ids=["empty", "K1"])
    def test_no_false_positive_without_edges(self, g):
        for rep in bound_reports(CliqueIndex(g), range(2, 7)):
            check_report(rep)
            assert rep.true_count == rep.localized_zykov == rep.kirsch_nir_sum == 0

    def test_no_false_positive_above_omega(self, c5):
        # C5 has omega = 2: from t = 3 on, N = localized = 0 and the
        # tightness flag is vacuous.
        for rep in bound_reports(CliqueIndex(c5), range(3, 7)):
            check_report(rep)
            assert rep.outcome == "vacuous"

    @pytest.mark.parametrize("name,g", regular_multipartite_family(),
                             ids=[name for name, _ in regular_multipartite_family()])
    def test_no_false_positive_at_equality(self, name, g):
        # On K_{s x r} both sides of the bound meet for t <= r, and the edge
        # sum is exactly n^2/2: each relation holds with equality.
        reports = bound_reports(CliqueIndex(g), range(2, 7))
        for rep in reports:
            check_report(rep)
            assert rep.true_count == rep.localized_zykov
            assert rep.edge_localized_sum == Fraction(g.n**2, 2)
        assert [rep.outcome for rep in reports] == [
            "tight" if t <= reports[0].omega else "vacuous" for t in range(2, 7)]
