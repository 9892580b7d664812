import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

import cliquebound.simplex as simplex_mod
from cliquebound.bounds import InvariantError, bound_reports, clique_density_term
from cliquebound.cliques import CHUNK, BudgetExceeded, CliqueIndex
from cliquebound.corpus import blow_up, empty_graph, path_graph, paw_graph
from cliquebound.graph import Graph, generate_complete_multipartite, generate_random
from cliquebound.simplex import (
    SimplexPoint,
    SimplexError,
    _random_weights,
    delta_ij,
    descend_to_clique_support,
    descent_end_phi,
    eval_phi,
    transfer,
    verify_nonnegativity,
)
from strategies import graph_and_point, graph_and_weights, graphs


def reference_phi(g, t, c, x):
    """Direct itertools evaluation of (A, B), independent of the bitset paths."""
    a = sum(x.x[v] * Fraction(comb(c[v], t), c[v] ** t)
            for v in range(g.n))
    b = Fraction(0)
    for combo in combinations(range(g.n), t):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            prod = Fraction(1)
            for v in combo:
                prod *= x.x[v]
            b += prod
    return a, b


def naive_descent(g, t, c, x0):
    """Reference descent: rescan every support pair each round and take phi,
    and delta from the phi difference of a full transfer, from reference_phi."""

    def phi(coords):
        a, b = reference_phi(g, t, c, SimpleNamespace(x=tuple(coords)))
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

    @pytest.mark.parametrize("make, message", [
        (lambda: SimplexPoint.uniform(0), "uniform point needs n >= 1"),
        (lambda: SimplexPoint.concentrated(3, 3), "vertex 3 out of range for n=3"),
        (lambda: SimplexPoint.from_weights([0, 0]), "weights must have positive sum"),
        (lambda: SimplexPoint.random_point(0, random.Random(0)), "random point needs n >= 1"),
    ], ids=["uniform", "concentrated", "from-weights", "random-point"])
    def test_constructors_reject(self, make, message):
        with pytest.raises(SimplexError) as exc:
            make()
        assert (exc.type, str(exc.value)) == (SimplexError, message)

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
        ev = eval_phi(CliqueIndex(k4), 2, SimplexPoint.uniform(4))
        assert (ev.a, ev.b, ev.phi) == (Fraction(3, 8), Fraction(3, 8), 0)

    def test_c5_uniform(self, c5):
        ev = eval_phi(CliqueIndex(c5), 2, SimplexPoint.uniform(5))
        assert (ev.a, ev.b, ev.phi) == (Fraction(1, 4), Fraction(1, 5), Fraction(1, 20))

    def test_concentrated_point(self, paw):
        index = CliqueIndex(paw)
        for v in range(4):
            ev = eval_phi(index, 2, SimplexPoint.concentrated(4, v))
            assert ev.b == 0
            assert ev.phi == clique_density_term(index.c[v], 2)

    def test_t_below_two_rejected(self, k4):
        with pytest.raises(ValueError) as exc:
            eval_phi(CliqueIndex(k4), 1, SimplexPoint.uniform(4))
        assert (exc.type, str(exc.value)) == (ValueError, "clique order t must be >= 2, got 1")

    def test_dimension_mismatch(self, k4):
        with pytest.raises(SimplexError):
            eval_phi(CliqueIndex(k4), 2, SimplexPoint.uniform(5))

    @given(graph_and_point(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=80)
    def test_matches_reference(self, gp, t):
        g, x = gp
        index = CliqueIndex(g)
        ev = eval_phi(index, t, x)
        a, b = reference_phi(g, t, index.c, x)
        assert (ev.a, ev.b) == (a, b)
        assert ev.phi == ev.a - ev.b


class TestBlowUp:
    """phi at a rational point w/W is the localized bound on the blow-up G[w]:
    a clique of G[w] takes at most one copy of each vertex, so c is kept and
    the t-cliques of G[w] number W^t B(w/W), while its localized bound is
    W^t A(w/W). So W^t phi(w/W) = localized(G[w]) - N(G[w], K_t)."""

    def test_blow_up_of_triangle_is_k222(self):
        assert blow_up(generate_complete_multipartite([1, 1, 1]), [2, 2, 2]).adjacency == (
            generate_complete_multipartite([2, 2, 2]).adjacency)

    @given(graph_and_weights(), st.integers(min_value=2, max_value=5))
    @example((generate_complete_multipartite([1, 1, 1]), [2, 2, 2]), 3)
    @settings(max_examples=80)
    def test_phi_is_the_bound_on_the_blow_up(self, gw, t):
        g, w = gw
        phi = eval_phi(CliqueIndex(g), t, SimplexPoint.from_weights(w)).phi
        [rep] = bound_reports(CliqueIndex(blow_up(g, w)), [t])
        assert sum(w) ** t * phi == rep.localized_zykov - rep.true_count
        if t <= rep.omega:
            assert (phi == 0) == rep.is_tight

    # G(n, 1/2) at the phi-simplex workload's sizes, past brute force: the
    # weighted sums against the counting walk on the blow-up.
    @pytest.mark.parametrize("t", [3, 4])
    @pytest.mark.parametrize("n", [16, 22, 28])
    def test_phi_is_the_bound_on_the_blow_up_at_scale(self, n, t):
        g = generate_random(n, Fraction(1, 2), seed=n)
        rng = random.Random(n)
        w = [rng.randint(1, 3) for _ in range(n)]
        index = CliqueIndex(g)
        phi = eval_phi(index, t, SimplexPoint.from_weights(w)).phi
        [rep] = bound_reports(CliqueIndex(blow_up(g, w)), [t])
        assert sum(w) ** t * phi == rep.localized_zykov - rep.true_count
        # The t-cliques of G[w] and of G, as batched clique sums.
        assert [b for _, b in index.weight_sums(g.full_mask, t, [w, [1] * n])] == [
            rep.true_count, index.histogram(t).total()]
        assert rep.true_count > 0


class TestDelta:
    def test_c5_symmetric_pair(self, c5):
        assert delta_ij(CliqueIndex(c5), 2, SimplexPoint.uniform(5), 0, 2) == 0

    def test_same_vertex_rejected(self, c5):
        with pytest.raises(ValueError):
            delta_ij(CliqueIndex(c5), 2, SimplexPoint.uniform(5), 1, 1)

    @pytest.mark.parametrize("i, j", [(-1, 0), (2, -1), (4, 0), (2, 4)])
    def test_vertex_out_of_range_rejected(self, i, j):
        # On P4, -1 would otherwise read vertex 3 and 4 raise an IndexError.
        with pytest.raises(SimplexError, match="distinct vertices of 0..3"):
            delta_ij(CliqueIndex(path_graph(4)), 2, SimplexPoint.uniform(4), i, j)

    @given(graph_and_point(min_n=2), st.integers(min_value=2, max_value=4))
    @settings(max_examples=80)
    def test_antisymmetry(self, gp, t):
        g, x = gp
        index = CliqueIndex(g)
        for i, j in combinations(range(min(g.n, 4)), 2):
            assert delta_ij(index, t, x, i, j) == -delta_ij(index, t, x, j, i)


class TestTransfer:
    def test_zero_amount_is_identity(self):
        x = SimplexPoint.uniform(3)
        assert transfer(x, 0, 1, Fraction(0)) == x

    def test_full_amount_removes_donor(self):
        x = SimplexPoint.uniform(3)
        y = transfer(x, 0, 1, Fraction(1, 3))
        assert y.support == {0, 2}
        assert y.x[0] == Fraction(2, 3)

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_rejects_vertex_out_of_range(self, i, j):
        # On 4 vertices, -1 would otherwise move mass to or from vertex 3.
        with pytest.raises(SimplexError, match="distinct vertices of 0..3"):
            transfer(SimplexPoint.uniform(4), i, j, Fraction(1, 4))

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
        index = CliqueIndex(g)
        before = eval_phi(index, t, x).phi
        after = eval_phi(index, t, transfer(x, i, j, eps)).phi
        assert after - before == eps * delta_ij(index, t, x, i, j)


class TestDescent:
    def test_c5_uniform(self, c5):
        index = CliqueIndex(c5)
        trace = descend_to_clique_support(index, 2, SimplexPoint.uniform(5))
        assert trace.end_support_is_clique
        assert trace.omega_end == 2  # ends on an edge
        end_phi = eval_phi(index, 2, trace.end).phi
        assert 0 <= end_phi <= Fraction(1, 20)
        # exhaustive reference: the minimum over edge-supported points is 0
        # (A = 1/4 fixed, B = a(1-a) maxes at 1/4), so any endpoint phi >= 0

    def test_clique_support_start_is_fixed_point(self, k4):
        x = SimplexPoint.uniform(4)
        trace = descend_to_clique_support(CliqueIndex(k4), 2, x)
        assert trace.steps == () and trace.end == x

    def test_concentrated_start_is_fixed_point(self, c5):
        x = SimplexPoint.concentrated(5, 2)
        trace = descend_to_clique_support(CliqueIndex(c5), 2, x)
        assert trace.steps == () and trace.end == x

    @given(graph_and_point(min_n=1), st.integers(min_value=2, max_value=4))
    @settings(max_examples=80)
    def test_descent_contract(self, gp, t):
        g, x0 = gp
        index = CliqueIndex(g)
        trace = descend_to_clique_support(index, t, x0)
        assert len(trace.steps) <= max(len(x0.support) - 1, 0)
        assert trace.end_support_is_clique
        assert g.induces_clique(trace.end.support_mask)
        # phi matches a fresh evaluation at every step and never increases
        phi = eval_phi(index, t, x0).phi
        x = x0
        for step in trace.steps:
            x = transfer(x, step.i, step.j, step.epsilon)
            fresh = eval_phi(index, t, x).phi
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
        index = CliqueIndex(g)
        trace = descend_to_clique_support(index, t, x0)
        steps, end = naive_descent(g, t, index.c, x0)
        assert [(s.i, s.j, s.epsilon, s.delta_ij, s.phi_after) for s in trace.steps] == steps
        assert trace.end == SimplexPoint(end) and trace.end.x == end

    @given(graph_and_point(min_n=1), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60)
    def test_start_value_replaces_the_walk_at_x0(self, gp, t):
        # Given phi(x0), the descent takes the same steps and skips its one
        # clique sum at x0: that and eval_phi's at x0 cost the plain descent.
        g, x0 = gp
        built = CliqueIndex(g).nodes  # the index's own pass
        index = CliqueIndex(g)
        trace = descend_to_clique_support(index, t, x0)
        descent = index.nodes - built
        index = CliqueIndex(g)
        phi0 = eval_phi(index, t, x0).phi
        assert descend_to_clique_support(index, t, x0, phi0) == trace
        assert index.nodes - built == descent

    def test_start_value_must_be_an_integer_over_its_denominator(self, c5):
        # C5 at t = 2: every density term is 1/4, so L = 4, and D = 5 at the
        # uniform point: phi there is an integer over L D^2 = 100.
        index = CliqueIndex(c5)
        with pytest.raises(ValueError, match=r"^phi0 = 1/3 is no integer over L D\^t = 100$"):
            descend_to_clique_support(index, 2, SimplexPoint.uniform(5), Fraction(1, 3))

    @given(graph_and_point(min_n=1), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60)
    def test_clique_support_floor(self, gp, t):
        # Maclaurin cap: on a k-clique support, B <= C(k,t)/k^t
        g, x0 = gp
        index = CliqueIndex(g)
        trace = descend_to_clique_support(index, t, x0)
        k = trace.omega_end
        ev = eval_phi(index, t, trace.end)
        cap = Fraction(comb(k, t), k**t)
        assert ev.b <= cap
        if all(trace.end.x[v] == Fraction(1, k) for v in trace.end.support):
            assert ev.b == cap


class TestDescentEndPhi:
    @given(graph_and_point(min_n=1), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60)
    def test_is_phi_at_the_end(self, gp, t):
        g, x0 = gp
        index = CliqueIndex(g)
        phi0 = eval_phi(index, t, x0).phi
        trace = descend_to_clique_support(index, t, x0, phi0)
        end_phi = descent_end_phi(index, t, trace, phi0)
        assert end_phi == eval_phi(index, t, trace.end).phi >= 0
        assert end_phi == (trace.steps[-1].phi_after if trace.steps else phi0)

    def test_end_off_the_last_step(self, c5):
        # The start point as the end: phi there is the start value, not the
        # last step's.
        index, x0 = CliqueIndex(c5), SimplexPoint.uniform(5)
        phi0 = eval_phi(index, 2, x0).phi
        trace = descend_to_clique_support(index, 2, x0, phi0)
        with pytest.raises(InvariantError) as exc:
            descent_end_phi(index, 2, replace(trace, end=x0), phi0)
        assert (exc.value.t, exc.value.relation) == (2, "end phi = last phi_after")
        assert str(exc.value) == ("descent end phi 1/20 differs from the last step's "
                                  "phi 1/100")

    def test_no_step_is_held_to_the_start_value(self, k4):
        index, x0 = CliqueIndex(k4), SimplexPoint.uniform(4)
        trace = descend_to_clique_support(index, 2, x0, Fraction(0))
        assert descent_end_phi(index, 2, trace, Fraction(0)) == 0
        with pytest.raises(InvariantError, match="differs from the last step's phi 1/8"):
            descent_end_phi(index, 2, trace, Fraction(1, 8))

    def test_negative_end(self, k4, monkeypatch):
        # Zero A-terms leave phi = -B: on K4 the descent takes no step and
        # ends where it starts, at phi = -3/8, which only the sign catches.
        monkeypatch.setattr(simplex_mod, "clique_density_term", lambda c, t: Fraction(0))
        index, x0 = CliqueIndex(k4), SimplexPoint.uniform(4)
        phi0 = eval_phi(index, 2, x0).phi
        trace = descend_to_clique_support(index, 2, x0, phi0)
        with pytest.raises(InvariantError, match=r"^descent end phi -3/8 < 0$") as exc:
            descent_end_phi(index, 2, trace, phi0)
        assert exc.value.relation == "phi >= 0"

    def test_end_support_not_a_clique(self, c5):
        index, x0 = CliqueIndex(c5), SimplexPoint.uniform(5)
        phi0 = eval_phi(index, 2, x0).phi
        trace = descend_to_clique_support(index, 2, x0, phi0)
        with pytest.raises(InvariantError) as exc:
            descent_end_phi(index, 2, replace(trace, end_support_is_clique=False), phi0)
        assert exc.value.relation == "end support is a clique"
        assert str(exc.value) == (f"descent ends on support {sorted(trace.end.support)}, "
                                  "which is no clique")


class TestNonnegativity:
    def test_octahedron_tight(self, octa):
        rep = verify_nonnegativity(CliqueIndex(octa), 3, samples=100, seed=1)
        assert rep.min_phi == 0
        assert rep.phi_uniform == 0

    def test_c5_strict(self, c5):
        rep = verify_nonnegativity(CliqueIndex(c5), 2, samples=100, seed=1)
        assert rep.min_phi >= 0
        assert rep.phi_uniform == Fraction(1, 20)

    def test_empty_graph_phi_identically_zero(self):
        # Every point ties at 0, across three chunks: the uniform point wins.
        rep = verify_nonnegativity(CliqueIndex(empty_graph(4)), 3, samples=2 * CHUNK + 1, seed=2)
        assert rep.min_phi == 0 and rep.phi_uniform == 0
        assert rep.argmin == SimplexPoint.uniform(4)

    @given(graphs(min_n=1), st.integers(min_value=2, max_value=5),
           st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=99))
    @settings(max_examples=80)
    @example(empty_graph(4), 3, 3, 0)  # every value is 0: the uniform point wins
    @example(paw_graph(), 3, 3, 0)  # e_3 alone reaches 0
    def test_matches_naive_minimum(self, g, t, samples, seed):
        """The minimum of phi over the uniform, vertex and seeded random
        points, first minimum in that order, each point evaluated by eval_phi."""
        rng = random.Random(seed)
        points = [SimplexPoint.uniform(g.n)]
        points += [SimplexPoint.concentrated(g.n, v) for v in range(g.n)]
        points += [SimplexPoint.random_point(g.n, rng) for _ in range(samples)]
        index = CliqueIndex(g)
        values = [eval_phi(index, t, x).phi for x in points]
        k = values.index(min(values))
        rep = verify_nonnegativity(CliqueIndex(g), t, samples, seed)
        assert rep.min_phi == values[k]
        assert rep.argmin == points[k]
        assert rep.phi_uniform == values[0]
        assert rep.points_checked == len(points)

    @pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("n", [12, 18, 24])
    def test_chunk_edges_match_naive_minimum(self, n, t, samples):
        """Around one and two chunks of points, the minimum compared as integer
        numerators is eval_phi's exact minimum over the same points, drawn
        here by randrange, the first minimum in uniform, vertex, sample order."""
        g = generate_random(n, Fraction(1, 2), seed=n + t)
        rng = random.Random(samples)
        points = [SimplexPoint.uniform(n)]
        points += [SimplexPoint.concentrated(n, v) for v in range(n)]
        points += [SimplexPoint.from_weights([rng.randrange(1, 1000) for _ in range(n)])
                   for _ in range(samples)]
        index = CliqueIndex(g)
        values = [eval_phi(index, t, x).phi for x in points]
        k = values.index(min(values))
        rep = verify_nonnegativity(CliqueIndex(g), t, samples, samples)
        assert rep.min_phi == values[k]
        assert rep.argmin == points[k]
        assert rep.phi_uniform == values[0]

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError) as exc:
            verify_nonnegativity(CliqueIndex(Graph(0, ())), 2, samples=1, seed=0)
        assert (exc.type, str(exc.value)) == (ValueError,
                                              "nonnegativity check needs n >= 1")

    def test_rejects_zero_samples(self, c5):
        with pytest.raises(ValueError):
            verify_nonnegativity(CliqueIndex(c5), 2, samples=0, seed=1)

    def test_rejects_negative_seed(self, c5):
        # Random(-s) seeds like Random(s), so seed -1 would repeat seed 1.
        with pytest.raises(ValueError, match="seed >= 0"):
            verify_nonnegativity(CliqueIndex(c5), 2, samples=1, seed=-1)

    def test_budget_caps_whole_call(self, octa):
        # The index's pass takes 15 nodes and one clique sum over the whole
        # octahedron 9. No single evaluation needs more than the 15 left of a
        # 30-node budget, but the call's two walks do: the uniform point and
        # CHUNK random points fill two chunks.
        assert CliqueIndex(octa).nodes == 15
        for v in range(octa.n):
            eval_phi(CliqueIndex(octa, 30), 3, SimplexPoint.concentrated(octa.n, v))
        index = CliqueIndex(octa, 30)
        eval_phi(index, 3, SimplexPoint.uniform(octa.n))
        assert index.nodes == 24
        verify_nonnegativity(CliqueIndex(octa, 30), 3, samples=CHUNK - 1, seed=1)
        with pytest.raises(BudgetExceeded):
            verify_nonnegativity(CliqueIndex(octa, 30), 3, samples=CHUNK, seed=1)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**64))
@example(1, 52)  # Random(52)'s first 10-bit draw is 999 or more, so it is redrawn
def test_random_weights_is_the_randrange_stream(n, seed):
    """The sampled points' weights are n calls of randrange(1, 1000), and
    the generator ends in the same state, so later draws stay in step."""
    rng, ref = random.Random(seed), random.Random(seed)
    assert _random_weights(n, rng) == [ref.randrange(1, 1000) for _ in range(n)]
    assert rng.getstate() == ref.getstate()


def test_budget_reaches_simplex_work(c5):
    # An index whose budget its own pass uses up has no node left for
    # simplex work.
    pass_nodes = CliqueIndex(c5).nodes
    x = SimplexPoint.uniform(5)
    with pytest.raises(BudgetExceeded):
        eval_phi(CliqueIndex(c5, pass_nodes), 2, x)
    with pytest.raises(BudgetExceeded):
        delta_ij(CliqueIndex(c5, pass_nodes), 2, x, 0, 2)
    with pytest.raises(BudgetExceeded):
        descend_to_clique_support(CliqueIndex(c5, pass_nodes), 2, x)

