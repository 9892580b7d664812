"""Shared hypothesis strategies for small random graphs, simplex points and
integer vertex weights."""

from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st

from cliquebound.graph import Graph
from cliquebound.simplex import SimplexPoint


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, f in zip(pairs, flags) if f])


@st.composite
def sparse_graphs(draw, min_n=65, max_n=150):
    """Graphs on ``min_n``..``max_n`` vertices with at most n random edges
    and one planted clique of up to 6 vertices: mostly isolated vertices and
    edges, so n is large for their mean clique order."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    planted = draw(st.lists(vertex, max_size=6, unique=True))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    return Graph.from_edges(n, edges | set(combinations(sorted(planted), 2)))


@st.composite
def simplex_points(draw, n):
    weights = draw(st.lists(st.integers(min_value=0, max_value=50),
                            min_size=n, max_size=n))
    if sum(weights) == 0:
        weights[draw(st.integers(min_value=0, max_value=n - 1))] = 1
    return SimplexPoint.from_weights([Fraction(w) for w in weights])


@st.composite
def graph_and_point(draw, min_n=1, max_n=8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    return g, draw(simplex_points(g.n))


@st.composite
def graph_and_weights(draw):
    """A graph on 1..7 vertices and an integer weight in 1..3 for each vertex:
    its blow-up has at most 3^7 maximal cliques."""
    g = draw(graphs(min_n=1, max_n=7))
    return g, draw(st.lists(st.integers(min_value=1, max_value=3),
                            min_size=g.n, max_size=g.n))

