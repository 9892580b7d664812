"""Brute-force reference implementations for small graphs.

These deliberately share no code with the fast paths, and import only
``graph`` of this package: everything here but ``tomita_maximal_cliques``
and ``plain_weight_sum`` is plain subset enumeration over vertex tuples
with pairwise adjacency tests, and a hard n <= 20 guard caps its cost.
Those two are the plain recursions that define the unit of work of the
maximal-clique pass and of the weighted clique sums, one call per node,
over vertex sets.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import NamedTuple

from .graph import Graph

MAX_ORACLE_N = 20


class OracleSizeError(ValueError):
    """Graph too large for brute-force enumeration."""


def _guard(g: Graph):
    if g.n > MAX_ORACLE_N:
        raise OracleSizeError(f"oracle limited to n <= {MAX_ORACLE_N}, got n={g.n}")


def _is_clique(g: Graph, verts) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(verts, 2))


def brute_count_cliques(g: Graph, t: int) -> int:
    """Count t-cliques by testing every C(n, t) vertex subset."""
    _guard(g)
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    return sum(1 for combo in combinations(range(g.n), t) if _is_clique(g, combo))


class BruteProfile(NamedTuple):
    """c(v) per vertex and omega, comparable with ``(index.c, index.omega)``."""

    c: tuple[int, ...]
    omega: int


def brute_vertex_clique_numbers(g: Graph) -> BruteProfile:
    """c(v) profile by enumerating every clique subset and updating maxima."""
    _guard(g)
    if g.n == 0:
        return BruteProfile((), 0)
    c = [1] * g.n
    for k in range(2, g.n + 1):
        for combo in combinations(range(g.n), k):
            if _is_clique(g, combo):
                for v in combo:
                    if k > c[v]:
                        c[v] = k
    return BruteProfile(tuple(c), max(c))


def brute_maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Every maximal clique as a sorted vertex tuple, by testing every vertex
    subset: a clique is maximal when no vertex outside it is adjacent to all
    of it. Ordered by size, then lexicographically."""
    _guard(g)
    out = []
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if _is_clique(g, combo) and not any(
                all(g.has_edge(u, v) for v in combo)
                for u in range(g.n) if u not in combo
            ):
                out.append(combo)
    return out


def tomita_maximal_cliques(g: Graph) -> tuple[list[int], int]:
    """The maximal cliques of ``g`` as vertex bitmasks, in the order found,
    and the nodes of the search that found them: Bron-Kerbosch with Tomita
    pivoting, one recursive call per node (r, p, x), from (empty, V, empty)
    if ``g`` has a vertex. A node with no candidate is a leaf, a clique if
    nothing is excluded; any other takes as pivot the first vertex of p | x
    with the most neighbours in p and branches, in increasing order, on the
    candidates that are not the pivot's neighbours, each branch vertex then
    moving from p to x. No size guard: it is a search, not an enumeration
    of subsets."""
    neighbours = [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    cliques: list[int] = []
    nodes = 0

    def expand(r: set, p: set, x: set):
        nonlocal nodes
        nodes += 1
        if not p:
            if not x:
                cliques.append(sum(1 << v for v in r))
            return
        pivot = max(sorted(p | x), key=lambda u: len(neighbours[u] & p))
        for v in sorted(p - neighbours[pivot]):
            expand(r | {v}, p & neighbours[v], x & neighbours[v])
            p = p - {v}
            x = x | {v}

    if g.n:
        expand(set(), set(range(g.n)), set())
    return cliques, nodes


def plain_weight_sum(g: Graph, mask: int, t: int, weights) -> tuple[int, int]:
    """The sum over the t-cliques within ``mask`` of their vertex weights'
    product, and the nodes of the recursion that found it: one call per
    node (r, cand), from (t, the vertices of ``mask``). A node at r = 1 sums
    its candidates' weights; any other adds, for each candidate v in
    increasing order, ``weights[v]`` times the sum of its child, the
    (r - 1)-cliques among the later candidates adjacent to v, calling the
    child only when it has at least r - 1 candidates. No size guard: the
    recursion visits cliques, not every vertex subset."""
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    neighbours = [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    nodes = 0

    def expand(r: int, cand: list[int]) -> int:
        nonlocal nodes
        nodes += 1
        if r == 1:
            return sum(weights[v] for v in cand)
        total = 0
        for i, v in enumerate(cand):
            sub = [u for u in cand[i + 1:] if u in neighbours[v]]
            if len(sub) >= r - 1:
                total += weights[v] * expand(r - 1, sub)
        return total

    return expand(t, [v for v in range(g.n) if mask >> v & 1]), nodes


def brute_kirsch_nir_alpha(g: Graph, copy) -> int:
    """Largest clique order over all cliques containing ``copy``, by subsets."""
    _guard(g)
    copy_list = list(copy)
    base = sorted(set(copy_list))
    if len(base) != len(copy_list):
        raise ValueError("clique copy contains duplicates")
    if not _is_clique(g, base):
        raise ValueError(f"vertex set {base} is not a clique")
    others = [v for v in range(g.n) if v not in set(base)]
    for k in range(len(others), 0, -1):
        for extra in combinations(others, k):
            if _is_clique(g, base + list(extra)):
                return len(base) + k
    return len(base)


def brute_alpha_histogram(g: Graph, t: int) -> Counter:
    """Number of t-cliques per largest-containing-clique order, by testing
    every t-subset and calling ``brute_kirsch_nir_alpha`` on each clique."""
    _guard(g)
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    return Counter(brute_kirsch_nir_alpha(g, combo)
                   for combo in combinations(range(g.n), t) if _is_clique(g, combo))
