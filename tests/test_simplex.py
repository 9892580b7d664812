from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from cliquebound.bounds import clique_density_term
from cliquebound.cliques import BudgetExceeded, vertex_clique_numbers
from cliquebound.corpus import empty_graph
from cliquebound.graph import Graph
from cliquebound.simplex import (
    SimplexPoint,
    SimplexError,
    check_minimizer_structure,
    delta_ij,
    descend_to_clique_support,
    eval_phi,
    transfer,
    verify_nonnegativity,
)
from strategies import graph_and_point, graphs


def reference_phi(g, t, profile, x):
    """Direct itertools evaluation of (A, B), independent of the bitset paths."""
    a = sum(x.x[v] * Fraction(comb(profile.c[v], t), profile.c[v] ** t)
            for v in range(g.n))
    b = Fraction(0)
    for combo in combinations(range(g.n), t):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            prod = Fraction(1)
            for v in combo:
                prod *= x.x[v]
            b += prod
    return a, b


def naive_descent(g, t, profile, x0):
    """Reference descent: rescan every support pair each round and take phi,
    and delta from the phi difference of a full transfer, from reference_phi."""

    def phi(coords):
        a, b = reference_phi(g, t, profile, SimpleNamespace(x=tuple(coords)))
        return a - b

    coords = list(x0.x)
    steps = []
    while True:
        support = [v for v in range(g.n) if coords[v] > 0]
        pairs = [(i, j) for i, j in combinations(support, 2) if not g.has_edge(i, j)]
        if not pairs:
            return steps, tuple(coords)
        i, j = pairs[0]
        moved = list(coords)
        moved[i] += moved[j]
        moved[j] = 0
        d = (phi(moved) - phi(coords)) / coords[j]
        recv, donor, rate = (i, j, d) if d <= 0 else (j, i, -d)
        eps = coords[donor]
        coords[recv] += eps
        coords[donor] = 0
        steps.append((recv, donor, eps, rate, phi(coords)))


@st.composite
def graph_and_sparse_point(draw):
    """A graph and a point with many zero coordinates."""
    g = draw(graphs(min_n=1))
    weights = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 7, 50]),
                            min_size=g.n, max_size=g.n))
    if not any(weights):
        weights[draw(st.integers(min_value=0, max_value=g.n - 1))] = 1
    return g, SimplexPoint.from_weights(weights)


class TestSimplexPoint:
    def test_rejects_negative(self):
        with pytest.raises(SimplexError):
            SimplexPoint((Fraction(3, 2), Fraction(-1, 2)))

    def test_rejects_bad_sum(self):
        with pytest.raises(SimplexError):
            SimplexPoint((Fraction(1, 2), Fraction(1, 3)))

    def test_support(self):
        p = SimplexPoint((Fraction(1, 2), Fraction(0), Fraction(1, 2)))
        assert p.support == {0, 2}
        assert p.support_mask == 0b101

    def test_uniform_and_concentrated(self):
        assert SimplexPoint.uniform(4).x == (Fraction(1, 4),) * 4
        assert SimplexPoint.concentrated(3, 1).support == {1}

    @given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=12),
                    min_size=2, max_size=6),
           st.data())
    def test_equal_coordinates_equal_points(self, weights, data):
        assume(sum(weights) > 0)
        coords = tuple(w / sum(weights) for w in weights)
        p = SimplexPoint(coords)
        q = SimplexPoint.from_weights(weights)
        assert p == q and hash(p) == hash(q) and p.x == q.x == coords
        assert gcd(p.den, *p.nums) == 1
        n = len(coords)
        for _ in range(3):
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            j = data.draw(st.integers(min_value=0, max_value=n - 1).filter(lambda v: v != i))
            eps = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=30)) * coords[j]
            moved = list(coords)
            moved[i] += eps
            moved[j] -= eps
            p2 = transfer(p, i, j, eps)
            fresh = SimplexPoint(tuple(moved))
            assert p2 == fresh and hash(p2) == hash(fresh) and p2.x == tuple(moved)
            assert gcd(p2.den, *p2.nums) == 1
            back = transfer(p2, j, i, eps)
            assert back == p and hash(back) == hash(p)
            p, coords = p2, tuple(moved)


class TestEvalPhi:
    def test_k4_uniform(self, k4):
        p = vertex_clique_numbers(k4)
        ev = eval_phi(k4, 2, p, SimplexPoint.uniform(4))
        assert (ev.a, ev.b, ev.phi) == (Fraction(3, 8), Fraction(3, 8), 0)

    def test_c5_uniform(self, c5):
        p = vertex_clique_numbers(c5)
        ev = eval_phi(c5, 2, p, SimplexPoint.uniform(5))
        assert (ev.a, ev.b, ev.phi) == (Fraction(1, 4), Fraction(1, 5), Fraction(1, 20))

    def test_concentrated_point(self, paw):
        p = vertex_clique_numbers(paw)
        for v in range(4):
            ev = eval_phi(paw, 2, p, SimplexPoint.concentrated(4, v))
            assert ev.b == 0
            assert ev.phi == clique_density_term(p.c[v], 2)

    def test_dimension_mismatch(self, k4):
        p = vertex_clique_numbers(k4)
        with pytest.raises(SimplexError):
            eval_phi(k4, 2, p, SimplexPoint.uniform(5))

    @given(graph_and_point(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=80)
    def test_matches_reference(self, gp, t):
        g, x = gp
        profile = vertex_clique_numbers(g)
        ev = eval_phi(g, t, profile, x)
        a, b = reference_phi(g, t, profile, x)
        assert (ev.a, ev.b) == (a, b)
        assert ev.phi == ev.a - ev.b


class TestDelta:
    def test_c5_symmetric_pair(self, c5):
        p = vertex_clique_numbers(c5)
        assert delta_ij(c5, 2, p, SimplexPoint.uniform(5), 0, 2) == 0

    def test_same_vertex_rejected(self, c5):
        with pytest.raises(ValueError):
            delta_ij(c5, 2, vertex_clique_numbers(c5), SimplexPoint.uniform(5), 1, 1)

    @given(graph_and_point(min_n=2), st.integers(min_value=2, max_value=4))
    @settings(max_examples=80)
    def test_antisymmetry(self, gp, t):
        g, x = gp
        p = vertex_clique_numbers(g)
        for i, j in combinations(range(min(g.n, 4)), 2):
            assert delta_ij(g, t, p, x, i, j) == -delta_ij(g, t, p, x, j, i)


class TestTransfer:
    def test_zero_amount_is_identity(self):
        x = SimplexPoint.uniform(3)
        assert transfer(x, 0, 1, Fraction(0)) == x

    def test_full_amount_removes_donor(self):
        x = SimplexPoint.uniform(3)
        y = transfer(x, 0, 1, Fraction(1, 3))
        assert y.support == {0, 2}
        assert y.x[0] == Fraction(2, 3)

    def test_rejects_excess(self):
        x = SimplexPoint.uniform(3)
        with pytest.raises(SimplexError):
            transfer(x, 0, 1, Fraction(1, 2))
        with pytest.raises(SimplexError):
            transfer(x, 0, 1, Fraction(-1, 3))

    @given(graph_and_point(min_n=2),
           st.integers(min_value=2, max_value=4),
           st.fractions(min_value=0, max_value=1))
    @settings(max_examples=120)
    def test_linear_response_on_nonadjacent_pairs(self, gp, t, frac):
        g, x = gp
        pairs = [(i, j) for i, j in combinations(range(g.n), 2)
                 if not g.has_edge(i, j) and x.x[j] > 0]
        if not pairs:
            return
        i, j = pairs[0]
        eps = frac * x.x[j]
        profile = vertex_clique_numbers(g)
        before = eval_phi(g, t, profile, x).phi
        after = eval_phi(g, t, profile, transfer(x, i, j, eps)).phi
        assert after - before == eps * delta_ij(g, t, profile, x, i, j)


class TestDescent:
    def test_c5_uniform(self, c5):
        p = vertex_clique_numbers(c5)
        trace = descend_to_clique_support(c5, 2, p, SimplexPoint.uniform(5))
        assert trace.end_support_is_clique
        assert trace.omega_end == 2  # ends on an edge
        end_phi = eval_phi(c5, 2, p, trace.end).phi
        assert 0 <= end_phi <= Fraction(1, 20)
        # exhaustive reference: the minimum over edge-supported points is 0
        # (A = 1/4 fixed, B = a(1-a) maxes at 1/4), so any endpoint phi >= 0

    def test_clique_support_start_is_fixed_point(self, k4):
        p = vertex_clique_numbers(k4)
        x = SimplexPoint.uniform(4)
        trace = descend_to_clique_support(k4, 2, p, x)
        assert trace.steps == () and trace.end == x

    def test_concentrated_start_is_fixed_point(self, c5):
        p = vertex_clique_numbers(c5)
        x = SimplexPoint.concentrated(5, 2)
        trace = descend_to_clique_support(c5, 2, p, x)
        assert trace.steps == () and trace.end == x

    @given(graph_and_point(min_n=1), st.integers(min_value=2, max_value=4))
    @settings(max_examples=80)
    def test_descent_contract(self, gp, t):
        g, x0 = gp
        profile = vertex_clique_numbers(g)
        trace = descend_to_clique_support(g, t, profile, x0)
        assert len(trace.steps) <= max(len(x0.support) - 1, 0)
        assert trace.end_support_is_clique
        assert g.induces_clique(trace.end.support_mask)
        # phi matches a fresh evaluation at every step and never increases
        phi = eval_phi(g, t, profile, x0).phi
        x = x0
        for step in trace.steps:
            x = transfer(x, step.i, step.j, step.epsilon)
            fresh = eval_phi(g, t, profile, x).phi
            assert fresh == step.phi_after <= phi
            phi = fresh
        assert x == trace.end

    @given(graph_and_sparse_point(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=100)
    # Vertex 3's (t-1)-clique sum is read at steps 0 and 1, changes at step 2
    # when its neighbour 2 donates, and is read again at step 3.
    @example((Graph.from_edges(7, [(0, 1), (0, 2), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3),
                                   (2, 5), (2, 6), (3, 5), (3, 6), (5, 6)]),
              SimplexPoint.from_weights([1, 1, 50, 3, 2, 2, 7])), 3)
    def test_matches_naive_descent(self, gp, t):
        g, x0 = gp
        profile = vertex_clique_numbers(g)
        trace = descend_to_clique_support(g, t, profile, x0)
        steps, end = naive_descent(g, t, profile, x0)
        assert [(s.i, s.j, s.epsilon, s.delta_ij, s.phi_after) for s in trace.steps] == steps
        assert trace.end == SimplexPoint(end) and trace.end.x == end

    @given(graph_and_point(min_n=1), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60)
    def test_clique_support_floor(self, gp, t):
        # Maclaurin cap: on a k-clique support, B <= C(k,t)/k^t
        g, x0 = gp
        profile = vertex_clique_numbers(g)
        trace = descend_to_clique_support(g, t, profile, x0)
        k = trace.omega_end
        ev = eval_phi(g, t, profile, trace.end)
        cap = Fraction(comb(k, t), k**t)
        assert ev.b <= cap
        if all(trace.end.x[v] == Fraction(1, k) for v in trace.end.support):
            assert ev.b == cap


class TestNonnegativity:
    def test_octahedron_tight(self, octa):
        p = vertex_clique_numbers(octa)
        rep = verify_nonnegativity(octa, 3, p, samples=100, seed=1)
        assert rep.min_phi == 0
        assert rep.phi_uniform == 0

    def test_c5_strict(self, c5):
        p = vertex_clique_numbers(c5)
        rep = verify_nonnegativity(c5, 2, p, samples=100, seed=1)
        assert rep.min_phi >= 0
        assert rep.phi_uniform == Fraction(1, 20)

    def test_empty_graph_phi_identically_zero(self):
        g = empty_graph(4)
        p = vertex_clique_numbers(g)
        rep = verify_nonnegativity(g, 3, p, samples=50, seed=2)
        assert rep.min_phi == 0 and rep.phi_uniform == 0

    def test_rejects_zero_samples(self, c5):
        with pytest.raises(ValueError):
            verify_nonnegativity(c5, 2, vertex_clique_numbers(c5), samples=0, seed=1)

    def test_budget_caps_whole_call(self, octa):
        # No single evaluation needs 100 nodes, but the 27 of the call do.
        p = vertex_clique_numbers(octa)
        for v in range(octa.n):
            eval_phi(octa, 3, p, SimplexPoint.concentrated(octa.n, v), budget=100)
        eval_phi(octa, 3, p, SimplexPoint.uniform(octa.n), budget=100)
        with pytest.raises(BudgetExceeded):
            verify_nonnegativity(octa, 3, p, samples=20, seed=1, budget=100)


def test_budget_reaches_simplex_work(c5):
    p = vertex_clique_numbers(c5)
    x = SimplexPoint.uniform(5)
    with pytest.raises(BudgetExceeded):
        eval_phi(c5, 2, p, x, budget=1)
    with pytest.raises(BudgetExceeded):
        delta_ij(c5, 2, p, x, 0, 2, budget=1)
    with pytest.raises(BudgetExceeded):
        descend_to_clique_support(c5, 2, p, x, budget=1)


class TestMinimizerStructure:
    def test_octahedron_passes(self, octa):
        p = vertex_clique_numbers(octa)
        rep = check_minimizer_structure(octa, 3, profile=p)
        assert rep.passed
        assert rep.parts.sizes == (2, 2, 2)

    def test_c5_inapplicable(self, c5):
        p = vertex_clique_numbers(c5)
        rep = check_minimizer_structure(c5, 2, profile=p)
        assert not rep.applicable
        assert rep.phi_uniform == Fraction(1, 20)

    def test_k4_singleton_parts(self, k4):
        p = vertex_clique_numbers(k4)
        rep = check_minimizer_structure(k4, 2, profile=p)
        assert rep.passed
        assert rep.parts.sizes == (1, 1, 1, 1)
