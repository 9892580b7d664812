import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from unittest.mock import patch

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from cliquebound import cliques as cliques_mod, graph as graph_mod
from cliquebound.bounds import bound_reports
from cliquebound.cliques import (
    CHUNK,
    DEFAULT_BUDGET,
    BudgetExceeded,
    CliqueIndex,
    count_cliques,
    vertex_clique_numbers,
)
from cliquebound.corpus import complete_graph, empty_graph, petersen_graph
from cliquebound.graph import Graph, generate_complete_multipartite, generate_random
from cliquebound.oracles import (
    brute_alpha_histogram,
    brute_count_cliques,
    brute_maximal_cliques,
    brute_vertex_clique_numbers,
    plain_weight_sum,
    tomita_maximal_cliques,
)
from strategies import graphs, sparse_graphs


class TestCountCliques:
    def test_k4_edges(self, k4):
        assert count_cliques(CliqueIndex(k4), 2) == 6

    def test_octahedron_triangles(self, octa):
        # value frozen from the brute-force subset oracle
        assert count_cliques(CliqueIndex(octa), 3) == 8
        assert brute_count_cliques(octa, 3) == 8

    def test_c5_triangle_free(self, c5):
        assert count_cliques(CliqueIndex(c5), 3) == 0

    def test_t_one_counts_vertices(self, c5):
        assert count_cliques(CliqueIndex(c5), 1) == 5

    def test_t_above_n(self, k4):
        assert count_cliques(CliqueIndex(k4), 5) == 0

    def test_t_far_above_omega_walks_only_the_root(self):
        # The walk is planned to depth omega at most, not to depth t, so a
        # huge t costs what t = omega + 1 does: the root alone.
        for t in (4, 10**9):
            index = CliqueIndex(petersen_graph())
            before = index.nodes
            assert count_cliques(index, t) == 0
            assert index.nodes - before == 1

    def test_t_below_one_rejected(self, k4):
        with pytest.raises(ValueError):
            count_cliques(CliqueIndex(k4), 0)

    @given(graphs(), st.integers(min_value=1, max_value=8))
    def test_matches_oracle(self, g, t):
        assert count_cliques(CliqueIndex(g), t) == brute_count_cliques(g, t)


class TestVertexCliqueNumbers:
    def test_c5(self, c5):
        index = CliqueIndex(c5)
        assert index.c == (2,) * 5 and index.omega == 2

    def test_k4(self, k4):
        index = CliqueIndex(k4)
        assert index.c == (4,) * 4 and index.omega == 4

    def test_paw(self, paw):
        # frozen from the brute-force oracle
        assert CliqueIndex(paw).c == (3, 3, 3, 2)

    def test_isolated_vertices_get_one(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert CliqueIndex(g).c == (2, 2, 1, 1)

    def test_empty_graph(self):
        index = CliqueIndex(Graph(0, ()))
        assert index.c == () and index.omega == 0

    @given(graphs())
    def test_matches_oracle(self, g):
        index = CliqueIndex(g)
        assert (index.c, index.omega) == brute_vertex_clique_numbers(g)
        assert vertex_clique_numbers(index) == index.c

    @given(graphs(min_n=1))
    def test_profile_invariants(self, g):
        index = CliqueIndex(g)
        assert max(index.c) == index.omega == index.sizes[-1]
        for v, c in enumerate(index.c):
            assert 1 <= c <= index.omega
            assert (c == 1) == (g.degree(v) == 0)

    @given(graphs(min_n=2))
    def test_edge_deletion_never_increases(self, g):
        edges = list(g.edges())
        if not edges:
            return
        before = CliqueIndex(g).c
        u, v = edges[0]
        smaller = Graph.from_edges(g.n, edges[1:])
        after = CliqueIndex(smaller).c
        assert all(a <= b for a, b in zip(after, before))


class TestMaximalCliques:
    @given(graphs(max_n=12))
    @example(Graph(0, ()))
    @example(Graph.from_edges(4, [(0, 1)]))
    def test_matches_oracle(self, g):
        oracle = brute_maximal_cliques(g)
        index = CliqueIndex(g)
        # Each oracle clique exactly once, and nothing else.
        assert sorted(index.cliques) == sorted(sum(1 << v for v in clique) for clique in oracle)
        assert index.sizes == sorted(map(len, oracle))

    # The pass settles a child with one or two candidates where it finds
    # it: one example graph per row of its table and per case of xa and xb.
    # ``pick`` draws a budget below the pass's nodes.
    @given(st.one_of(graphs(), sparse_graphs(),
                     st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=6)
                     .map(generate_complete_multipartite)),
           st.integers(min_value=0))
    # p' = {a}: xa empty, then not.
    @example(Graph.from_edges(2, [(0, 1)]), 0)
    @example(Graph.from_edges(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)]), 0)
    # p' = {a, b}, a ~ b: xa & xb empty, then not.
    @example(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), 0)
    @example(Graph.from_edges(8, [(0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (2, 4), (2, 5),
                                  (2, 6), (2, 7), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6)]), 0)
    # p' = {a, b}, a !~ b: xa & xb not empty; xa and xb empty; only xa
    # empty; only xb empty; neither empty, but disjoint.
    @example(Graph.from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3),
                                  (2, 4)]), 0)
    @example(Graph.from_edges(3, [(0, 1), (0, 2)]), 0)
    @example(Graph.from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3), (2, 4)]), 0)
    @example(Graph.from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4)]), 0)
    @example(Graph.from_edges(8, [(0, 5), (0, 7), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6),
                                  (2, 7), (3, 4), (3, 5), (4, 6), (5, 7), (6, 7)]), 0)
    def test_pass_charges_the_plain_search(self, g, pick):
        # The budget unit is a node of the plain pivoted search: the pass
        # finds its cliques, charges its nodes, and raises past them.
        cliques, nodes = tomita_maximal_cliques(g)
        index = CliqueIndex(g)
        assert sorted(index.cliques) == sorted(cliques)
        assert index.nodes == nodes
        if nodes:
            with pytest.raises(BudgetExceeded):
                CliqueIndex(g, budget=nodes - 1)
            # Past the budget the pass stops as every kernel does, with
            # ``nodes`` at budget + 1, on a fresh meter.
            meter = CliqueIndex.__new__(CliqueIndex)
            meter.nodes, meter.budget = 0, pick % nodes
            with pytest.raises(BudgetExceeded):
                cliques_mod._maximal_cliques(g, meter)
            assert meter.nodes == meter.budget + 1
        assert CliqueIndex(g, budget=nodes).nodes == nodes


def _member_by_definition(index):
    """Per vertex v, the ids i with v in ``cliques[i]``, as a bitset."""
    return [sum(1 << i for i, clique in enumerate(index.cliques) if clique >> v & 1)
            for v in range(index.graph.n)]


class TestMember:
    """Bit i of ``member[v]`` is set exactly when v lies in ``cliques[i]``,
    whichever way ``member`` is built."""

    @given(graphs(max_n=12))
    @example(Graph(0, ()))
    def test_matches_definition(self, g):
        index = CliqueIndex(g)
        assert index.member == _member_by_definition(index)

    @pytest.mark.parametrize("g,by_strings", [
        (Graph.from_edges(70, []), False),
        (generate_random(300, Fraction(6, 300), seed=1), False),
        (generate_complete_multipartite([2] * 10), True),
        (generate_random(60, Fraction(1, 2), seed=1), True),
        # 8,192 cliques: more than one block.
        (generate_complete_multipartite([2] * 13), True),
    ], ids=["edgeless70", "gnp300-sparse", "K2x10", "gnp60-half", "K2x13"])
    def test_both_builds_match_definition(self, g, by_strings):
        with patch.object(graph_mod, "_transpose_by_strings",
                          wraps=graph_mod._transpose_by_strings) as strings:
            index = CliqueIndex(g)
        assert strings.called == by_strings
        assert index.member == _member_by_definition(index)

    @given(sparse_graphs())
    def test_sparse_graphs_match_definition(self, g):
        # n >= 65 is large for these graphs' clique orders, so the index
        # mostly builds by incidence; both builds are checked on each.
        index = CliqueIndex(g)
        member = _member_by_definition(index)
        assert index.member == member
        assert graph_mod._transpose_by_incidence(index.cliques, g.n) == member
        assert graph_mod._transpose_by_strings(index.cliques, g.n) == member
        # Each order's count against the weighted sum, which reads no member.
        for t in range(1, 6):
            assert index.histogram(t).total() == index.weight_sum(g.full_mask, t, (1,) * g.n)

    def test_transpose_spans_blocks(self):
        assert len(CliqueIndex(generate_complete_multipartite([2] * 13)).cliques) \
            > graph_mod._BLOCK

    @pytest.mark.parametrize("s,r", [(1, 5), (2, 13), (3, 6), (4, 4), (5, 1)])
    def test_multipartite_closed_form(self, s, r):
        # K_{s x r}: each of the s^r maximal cliques takes one vertex per
        # part, so each vertex lies in s^(r-1) of them.
        index = CliqueIndex(generate_complete_multipartite([s] * r))
        assert len(index.cliques) == s ** r
        assert [ids.bit_count() for ids in index.member] == [s ** (r - 1)] * (s * r)


class TestMaxCliqueContaining:
    """The index's histogram counts the t-cliques per order of the largest
    clique containing each."""

    def test_k4_edge(self, k4):
        assert CliqueIndex(k4).histogram(2) == Counter({4: 6})

    def test_paw_pendant(self, paw):
        assert CliqueIndex(paw).histogram(1) == Counter({3: 3, 2: 1})

    def test_c5_edge(self, c5):
        assert CliqueIndex(c5).histogram(2) == Counter({2: 5})

    def test_non_clique_rejected(self, c5):
        # Only the 5 edges are counted, none of the 5 non-adjacent pairs.
        index = CliqueIndex(c5)
        assert index.histogram(2).total() == c5.m
        with pytest.raises(ValueError):
            index.histogram(0)
        with pytest.raises(ValueError):
            index.histograms({2, 0})

    @given(graphs(), st.integers(min_value=1, max_value=6))
    @example(Graph(0, ()), 1)
    @example(Graph.from_edges(4, [(0, 1)]), 3)
    def test_matches_oracle(self, g, t):
        histogram = CliqueIndex(g).histogram(t)
        assert histogram == brute_alpha_histogram(g, t)
        if t == 1:
            assert histogram == Counter(brute_vertex_clique_numbers(g).c)


_ORDERS = st.sets(st.integers(min_value=1, max_value=6), min_size=1)

# Vertices 0, 1 and 2 lie in no triangle, but each has two later neighbours
# in two of the triangles {3, 4, 5}, {6, 7, 8}, {9, 10, 11}: a walk that
# counts the vertices must not expand them towards the triangles.
_STARS_ON_TRIANGLES = Graph.from_edges(12, [
    (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8), (9, 10), (9, 11), (10, 11),
    (0, 3), (0, 6), (1, 4), (1, 9), (2, 7), (2, 10)])
# K_5 on 0..4, and three groups {x, x+1, x+2} (x = 5, 8, 11) joined to 0 and
# 1, with x adjacent to x+1 and x+2: {0, 1, x} lies in two K_4s and no K_5,
# so a walk that counts the edges must not expand the edges {x, x+1} and
# {x, x+2}, whose alpha is 4, towards the 5-cliques.
_K5_WITH_K4_FANS = Graph.from_edges(14, [
    *((a, b) for a in range(5) for b in range(a + 1, 5)),
    *((u, v) for x in (5, 8, 11)
      for u, v in ((0, x), (1, x), (0, x + 1), (1, x + 1), (0, x + 2), (1, x + 2),
                   (x, x + 1), (x, x + 2)))])


def _walked(index, ts):
    """The histograms of one ``histograms(ts)`` call and the nodes it charged."""
    before = index.nodes
    return index.histograms(ts), index.nodes - before


def _single_order_walks(g, ts):
    """Each order's histogram, each from a fresh index, and the nodes charged
    to them all."""
    walks = {t: _walked(CliqueIndex(g), [t]) for t in ts}
    return ({t: walked[t] for t, (walked, _) in walks.items()},
            sum(nodes for _, nodes in walks.values()))


class TestHistograms:
    """One walk for several orders gives each order's histogram, and is
    charged no more than one walk per order."""

    @given(graphs(), _ORDERS)
    @example(Graph(0, ()), {1, 2})
    @example(generate_complete_multipartite([2, 2, 2]), {2, 3})
    def test_matches_single_order_walks_and_oracle(self, g, ts):
        together, charged = _walked(CliqueIndex(g), ts)
        singles, single_nodes = _single_order_walks(g, ts)
        assert together == singles
        assert together == {t: brute_alpha_histogram(g, t) for t in ts}
        assert charged <= single_nodes

    @pytest.mark.parametrize("g,ts", [(_STARS_ON_TRIANGLES, {1, 3}),
                                      (_K5_WITH_K4_FANS, {2, 5})],
                             ids=["stars-on-triangles", "K5-with-K4-fans"])
    def test_prunes_to_the_next_order(self, g, ts):
        together, charged = _walked(CliqueIndex(g), ts)
        singles, single_nodes = _single_order_walks(g, ts)
        assert together == singles
        assert charged < single_nodes

    def test_k2x2x2_one_walk(self):
        # Edges and triangles of K_{2x2x2}: one walk of 7 nodes, the
        # triangles' walk, against 4 + 7 for one walk per order.
        index = CliqueIndex(generate_complete_multipartite([2, 2, 2]))
        before = index.nodes
        assert index.histograms([2, 3]) == {2: Counter({3: 12}), 3: Counter({3: 8})}
        assert index.nodes - before == 7

    @pytest.mark.parametrize("n", [1, 5, 400])
    def test_complete_graph_one_node(self, n):
        # Every clique of K_n lies in its one maximal clique: the root
        # counts them all in one step.
        index = CliqueIndex(generate_complete_multipartite([1] * n))
        assert _walked(index, (2, 3, 4)) == (
            {t: Counter({n: comb(n, t)} if t <= n else {}) for t in (2, 3, 4)}, 1)

    @given(graphs(), _ORDERS, _ORDERS)
    def test_kept_orders_are_not_walked_again(self, g, first, second):
        # A second call walks only the orders the first did not count.
        index = CliqueIndex(g)
        index.histograms(first)
        kept, charged = _walked(index, second)
        rest = second - first
        assert charged == (_walked(CliqueIndex(g), rest)[1] if rest else 0)
        assert all(kept[t] is index.histogram(t) for t in second)

    def test_budget_exceeded_keeps_nothing(self, octa):
        # A walk cut by the budget keeps no partial histogram: once the
        # budget is raised, both orders are walked again, in full.
        index = CliqueIndex(octa, budget=CliqueIndex(octa).nodes + 1)
        with pytest.raises(BudgetExceeded):
            index.histograms([2, 3])
        index.budget += 100
        before = index.nodes
        assert index.histograms([2, 3]) == {2: Counter({3: 12}), 3: Counter({3: 8})}
        assert index.nodes - before == 7


# K_5 on 0..4 and vertex 5 joined to 0, 1 and 2. The largest clique holding
# {0, 1, 2} is the K_5: the 4-cliques {0, 1, 2, 3} and {0, 1, 2, 4} lie in
# it, but {0, 1, 2, 5} lies only in a K_4.
_K5_WITH_K4 = Graph.from_edges(6, [
    *((a, b) for a in range(5) for b in range(a + 1, 5)), (0, 5), (1, 5), (2, 5)])


class TestSmallestFirst:
    """Ids run smallest first, so the highest id of a clique-id set names a
    largest clique holding it."""

    def test_ids_run_smallest_first(self):
        index = CliqueIndex(_K5_WITH_K4)
        assert index.sizes == [4, 5]
        assert index.cliques == [0b100111, 0b011111]

    def test_deepest_order_counted_inside_and_outside_the_largest_clique(self):
        index = CliqueIndex(_K5_WITH_K4)
        assert index.histograms((3, 4)) == {3: Counter({5: 10, 4: 3}),
                                            4: Counter({5: 5, 4: 1})}
        assert index.c == (5, 5, 5, 5, 5, 4)
        # The pass's 7 nodes and a walk of 2: the root counts every clique
        # inside the K_5 in one step, and vertex 5, the one candidate outside
        # it, every clique of its K_4 that holds it.
        assert index.nodes == 9
        assert all(index.histogram(t) == brute_alpha_histogram(_K5_WITH_K4, t)
                   for t in (3, 4))

    @pytest.mark.parametrize("g", [Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)]),
                                   Graph(0, ()), Graph.from_edges(3, [])],
                             ids=["C5", "empty", "three-isolated"])
    def test_root_call_is_charged_without_candidates(self, g):
        # No triangle: the walk is its root call alone, charged one node.
        index = CliqueIndex(g)
        assert _walked(index, [3]) == ({3: Counter()}, 1)


def _readings(g):
    """What a fresh index gives out: the histograms at t = 2..4 with the
    nodes of the one walk that ``bound_reports`` runs for them, the reports
    at t = 2..4, c(v) and omega, and each histogram(t) for t = 1..5 with the nodes its
    walk charged."""
    index = CliqueIndex(g)
    walk = _walked(index, (2, 3, 4))
    reports = bound_reports(index, (2, 3, 4))
    return (walk, reports, (index.c, index.omega),
            [_walked(index, [t]) for t in range(1, 6)])


class TestCliqueOrder:
    """The pass may find equal-order cliques in any order: nothing the index
    gives out, and no walk's charge, depends on it."""

    @given(graphs())
    @example(generate_complete_multipartite([2, 2, 2]))
    def test_reversed_pass_reads_the_same(self, g):
        real = cliques_mod._maximal_cliques
        with patch.object(cliques_mod, "_maximal_cliques", lambda *args: real(*args)[::-1]):
            reversed_pass = _readings(g)
        assert reversed_pass == _readings(g)


def _neighborhood_count(index, v, t):
    """Number of t-cliques inside N(v), as a unit-weight clique sum."""
    g = index.graph
    return index.weight_sum(g.adjacency[v], t, (1,) * g.n)


class TestNeighborhoodCounts:
    def test_k4(self, k4):
        assert _neighborhood_count(CliqueIndex(k4), 0, 2) == 3

    def test_c5(self, c5):
        assert _neighborhood_count(CliqueIndex(c5), 0, 2) == 0

    def test_octahedron(self, octa):
        # N(0) induces a 4-cycle; frozen from brute force over its 6 pairs
        assert _neighborhood_count(CliqueIndex(octa), 0, 2) == 4

    @given(graphs(min_n=1), st.integers(min_value=2, max_value=6))
    def test_handshake_identity(self, g, t):
        index = CliqueIndex(g)
        total = sum(_neighborhood_count(index, v, t - 1) for v in range(g.n))
        assert total == t * index.histogram(t).total()

    def test_order_below_one_rejected(self, k4):
        index, weights = CliqueIndex(k4), (1,) * k4.n
        message = "clique order must be >= 1, got 0"
        with pytest.raises(ValueError, match=message):
            index.weight_sum(k4.full_mask, 0, weights)
        with pytest.raises(ValueError, match=message):
            index.weight_sums(k4.full_mask, 0, [weights])

    def test_charges_the_index_meter(self, k4):
        # N(0) = {1, 2, 3}: the root, then one leaf below 1 and one below 2.
        index = CliqueIndex(k4)
        before = index.nodes
        assert _neighborhood_count(index, 0, 2) == 3
        assert index.nodes == before + 3
        with pytest.raises(BudgetExceeded):
            _neighborhood_count(CliqueIndex(k4, budget=before + 2), 0, 2)


def _brute_weight_sum(g, mask, t, weights):
    """Sum over the t-cliques within ``mask`` of their weights' product, by
    testing every t-subset."""
    return sum(
        prod(weights[v] for v in combo)
        for combo in combinations([v for v in range(g.n) if mask >> v & 1], t)
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2))
    )


# Zeros, small weights and weights past a machine word.
_WEIGHTS = st.one_of(st.just(0), st.integers(min_value=1, max_value=1000),
                     st.integers(min_value=2 ** 64 + 1, max_value=2 ** 80))


@st.composite
def weighted_graphs(draw):
    g = draw(graphs(max_n=10))
    weights = tuple(draw(st.lists(_WEIGHTS, min_size=g.n, max_size=g.n)))
    sub = draw(st.integers(min_value=0, max_value=g.full_mask))
    return g, weights, sub


class TestWeightSum:
    @given(weighted_graphs(), st.integers(min_value=1, max_value=5))
    @example((generate_complete_multipartite([1, 1, 1, 1]), (0, 2 ** 64 + 1, 3, 2 ** 70),
              0b1011), 3)
    def test_matches_brute_force(self, gws, t):
        g, weights, sub = gws
        index = CliqueIndex(g)
        for mask in (g.full_mask, sub):
            assert index.weight_sum(mask, t, weights) == _brute_weight_sum(g, mask, t, weights)

    @given(weighted_graphs(), st.lists(st.lists(_WEIGHTS, min_size=10, max_size=10),
                                       min_size=1, max_size=3),
           st.integers(min_value=1, max_value=5),
           st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1]))
    def test_batch_matches_per_point(self, gws, rows, t, count):
        # Point i is a drawn row times i + 1, so the points differ from
        # their neighbours unless the row is all zeros.
        g, _, sub = gws
        points = [[w * (i + 1) for w in rows[i % len(rows)][:g.n]] for i in range(count)]
        for mask in (g.full_mask, sub):
            one = CliqueIndex(g)
            before = one.nodes
            one.weight_sum(mask, t, points[0])
            walk = one.nodes - before
            index = CliqueIndex(g)
            before = index.nodes
            pairs = list(index.weight_sums(mask, t, iter(points)))
            # Each point itself, in order, with its own sum.
            assert [p for p, _ in pairs] == points
            assert all(p is q for (p, _), q in zip(pairs, points))
            assert [b for _, b in pairs] == [one.weight_sum(mask, t, p) for p in points]
            # One walk per chunk, whatever the weights.
            assert index.nodes - before == -(-count // CHUNK) * walk

    def test_stream_is_read_a_chunk_at_a_time(self, octa):
        # 2 CHUNK + 1 points of a lazy stream: each chunk's points are drawn,
        # and its one walk charged, only when its first pair is asked for.
        drawn = []

        def stream():
            for k in range(2 * CHUNK + 1):
                drawn.append(k)
                yield [k + 1] * octa.n

        walk = CliqueIndex(octa)
        before = walk.nodes
        walk.weight_sum(octa.full_mask, 3, [1] * octa.n)
        walk = walk.nodes - before
        index = CliqueIndex(octa)
        before = index.nodes
        pairs = index.weight_sums(octa.full_mask, 3, stream())
        assert (drawn, index.nodes) == ([], before)
        seen = [next(pairs)]
        assert (len(drawn), index.nodes - before) == (CHUNK, walk)
        seen += [next(pairs) for _ in range(CHUNK - 1)]  # the rest of the first chunk
        assert (len(drawn), index.nodes - before) == (CHUNK, walk)
        seen.append(next(pairs))
        assert (len(drawn), index.nodes - before) == (2 * CHUNK, 2 * walk)
        seen += pairs
        assert (len(drawn), index.nodes - before) == (2 * CHUNK + 1, 3 * walk)
        # Eight triangles of weight product (k + 1)^3 each.
        assert seen == [([k + 1] * octa.n, 8 * (k + 1) ** 3) for k in range(2 * CHUNK + 1)]

    def test_order_below_one_raises_before_any_point_is_read(self, k4):
        def untouched():
            raise AssertionError("a point was read")
            yield

        index = CliqueIndex(k4)
        before = index.nodes
        with pytest.raises(ValueError, match="^clique order must be >= 1, got 0$"):
            index.weight_sums(k4.full_mask, 0, untouched())
        assert index.nodes == before


def _charged(index, call):
    """What ``call()`` returns and the nodes it charged to ``index``."""
    before = index.nodes
    return call(), index.nodes - before


class TestWeightSumNodes:
    """The sums charge one node per call of the plain recursion,
    ``oracles.plain_weight_sum``, whether the kernel makes the call or
    settles it where it finds it, and raise past the budget by
    ``CliqueIndex.charge``, leaving ``nodes`` at budget + 1."""

    @given(weighted_graphs(), st.integers(min_value=1, max_value=5))
    # The node that crosses the budget is a leaf settled in place: the last
    # leaf below the root at t = 2, and below the last r = 2 node at t = 3.
    @example((complete_graph(3), (1, 2, 3), 0b011), 2)
    @example((complete_graph(4), (1, 2, 3, 2 ** 70), 0b1011), 3)
    # Roots at t = 1 and t = 2, the latter with no edge below it.
    @example((empty_graph(3), (1, 2, 3), 0b101), 1)
    @example((empty_graph(3), (1, 2, 3), 0b101), 2)
    def test_sums_charge_the_plain_recursion(self, gws, t):
        g, weights, sub = gws
        second = tuple(w + 1 for w in weights)
        # Two chunks, the two weight rows alternating.
        points = [(weights, second)[k % 2] for k in range(CHUNK + 1)]
        for mask in (g.full_mask, sub):
            total, nodes = plain_weight_sum(g, mask, t, weights)
            other = plain_weight_sum(g, mask, t, second)[0]
            index = CliqueIndex(g)
            assert _charged(index, lambda: index.weight_sum(mask, t, weights)) == (total, nodes)
            # Each chunk's walk is charged the recursion's nodes once.
            pairs = index.weight_sums(mask, t, points)
            assert _charged(index, lambda: next(pairs)) == ((weights, total), nodes)
            assert _charged(index, lambda: list(pairs)) == (
                [(p, (total, other)[k % 2]) for k, p in enumerate(points[1:], 1)], nodes)
            for run in (lambda index: index.weight_sum(mask, t, weights),
                        lambda index: next(index.weight_sums(mask, t, points))):
                index = CliqueIndex(g)
                index.budget = index.nodes + nodes - 1
                with pytest.raises(BudgetExceeded):
                    run(index)
                assert index.nodes == index.budget + 1
                index = CliqueIndex(g)
                index.budget = index.nodes + nodes
                run(index)
                assert index.nodes == index.budget

    def test_a_node_with_200000_candidates(self):
        # The star K_{1,200000}, centre 0, as a bare adjacency list: at r = 2
        # the centre's child, a leaf settled in place, has 200,000
        # candidates. Its sums must not nest a lazy iterator per candidate,
        # which would overflow the C stack when read.
        n = 200_001
        adj = [(1 << n) - 2] + [1] * (n - 1)
        columns = [[2, 3]] + [[v, 1] for v in range(1, n)]
        leaves = n * (n - 1) // 2

        class Meter:
            nodes, budget = 0, DEFAULT_BUDGET

            def charge(self, k):
                self.nodes += k

        meter = Meter()
        assert cliques_mod._weight_sums_rec(adj, (1 << n) - 1, 2, columns, [0, 0], meter) == [
            2 * leaves, 3 * (n - 1)]
        assert meter.nodes == 2
        weights = [column[0] for column in columns]
        assert cliques_mod._weight_rec(adj, (1 << n) - 1, 2, weights, meter) == 2 * leaves
        assert meter.nodes == 4


class TestEnumerationAndBudget:
    def test_enumerate_matches_count(self, octa):
        assert CliqueIndex(octa).histogram(3) == Counter({3: 8})

    def test_budget_exceeded(self):
        g = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        with pytest.raises(BudgetExceeded):
            CliqueIndex(g, budget=1)
        # The walk is charged to the same meter as the pass.
        index = CliqueIndex(g, budget=CliqueIndex(g).nodes)
        with pytest.raises(BudgetExceeded):
            index.histogram(3)

    def test_clique_past_recursion_limit(self):
        # The pass runs on an explicit stack, so a clique of more vertices
        # than Python's recursion limit is found. On K_n the pivot leaves one
        # branch vertex per node: a chain of n nodes and its leaf.
        n = sys.getrecursionlimit() + 10
        index = CliqueIndex(generate_complete_multipartite([1] * n))
        assert index.sizes == [n]
        assert index.nodes == n + 1

    @pytest.mark.parametrize("g,expected", [
        (generate_complete_multipartite([2, 2, 2]), (15, 19, 26, 35)),
        (generate_random(12, Fraction(1, 2), seed=5), (41, 50, 70, 105)),
    ], ids=["K2x2x2", "gnp12-seed5"])
    def test_budget_unit_node_counts(self, g, expected):
        # The nodes that --budget counts, after the pass, after
        # histogram(2) and histogram(3), and after one full-mask weighted
        # sum at t = 3. A faster kernel must charge exactly these.
        index = CliqueIndex(g)
        nodes = [index.nodes]
        for t in (2, 3):
            index.histogram(t)
            nodes.append(index.nodes)
        index.weight_sum(g.full_mask, 3, (1,) * g.n)
        nodes.append(index.nodes)
        assert tuple(nodes) == expected
