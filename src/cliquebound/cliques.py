"""Exact clique counting and largest-containing-clique orders over bitset
adjacency.

Counting uses ordered recursive expansion (each clique enumerated once, in
increasing vertex order). Maximal-clique enumeration uses Bron-Kerbosch with
pivoting under a degeneracy vertex ordering; one pass gives the order of the
largest clique containing each t-clique, hence c(v), w(e) and alpha(T). Both
honor an optional work budget measured in recursion nodes (plus t-subset
visits for the orders).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .graph import Graph, bits

DEFAULT_BUDGET = 5_000_000


class BudgetExceeded(RuntimeError):
    """Clique recursion exceeded its node budget."""

    def __init__(self, budget: int):
        super().__init__(f"clique enumeration exceeded work budget of {budget} nodes")
        self.budget = budget


@dataclass(frozen=True)
class CliqueProfile:
    """Per-vertex largest-containing-clique orders and the clique number."""

    c: tuple[int, ...]
    omega: int

    def __post_init__(self):
        if self.c and max(self.c) != self.omega:
            raise ValueError("omega must equal max of the per-vertex profile")


class _Work:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int | None):
        self.nodes = 0
        self.budget = DEFAULT_BUDGET if budget is None else budget

    def tick(self, k: int = 1):
        self.nodes += k
        if self.nodes > self.budget:
            raise BudgetExceeded(self.budget)


def _count_rec(adj: Sequence[int], cand: int, r: int, work: _Work) -> int:
    work.tick()
    if r == 1:
        return cand.bit_count()
    total = 0
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if cand.bit_count() < r - 1:
            break
        sub = cand & adj[v]
        if sub.bit_count() >= r - 1:
            total += _count_rec(adj, sub, r - 1, work)
    return total


def count_cliques(g: Graph, t: int, budget: int | None = None) -> int:
    """Exact number of t-vertex cliques in g."""
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    if t == 1:
        return g.n
    if t > g.n:
        return 0
    work = _Work(budget)
    return _count_rec(g.adjacency, g.full_mask, t, work)


def clique_weight_sum(g: Graph, mask: int, t: int, weights: Sequence[Fraction],
                      budget: int | None = None) -> Fraction:
    """Sum over t-cliques within ``mask`` of the product of vertex weights."""
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    adj = g.adjacency
    work = _Work(budget)

    def rec(cand: int, r: int) -> Fraction:
        work.tick()
        if r == 1:
            return sum((weights[v] for v in bits(cand)), Fraction(0))
        total = Fraction(0)
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            sub = cand & adj[v]
            if sub.bit_count() >= r - 1:
                total += weights[v] * rec(sub, r - 1)
        return total

    return rec(mask, t)


def _degeneracy_order(adj: Sequence[int], mask: int) -> list[int]:
    """Vertices of ``mask`` ordered by repeated minimum-degree removal, ties
    going to the lowest index.

    Each vertex sits in a bitmask bucket for its degree among the remaining
    vertices; the next vertex is the lowest set bit of the lowest nonempty
    bucket. A removal lowers the minimum degree by at most one.
    """
    deg = [0] * len(adj)
    buckets = [0] * mask.bit_count()
    for v in bits(mask):
        deg[v] = (adj[v] & mask).bit_count()
        buckets[deg[v]] |= 1 << v
    remaining = mask
    order = []
    d = 0
    while remaining:
        while not buckets[d]:
            d += 1
        low = buckets[d] & -buckets[d]
        v = low.bit_length() - 1
        order.append(v)
        buckets[d] ^= low
        remaining ^= low
        for u in bits(adj[v] & remaining):
            bit = 1 << u
            buckets[deg[u]] ^= bit
            deg[u] -= 1
            buckets[deg[u]] |= bit
        d = max(d - 1, 0)
    return order


def _maximal_cliques(adj: Sequence[int], mask: int, work: _Work) -> Iterator[int]:
    """Bron-Kerbosch with pivoting over the induced subgraph on ``mask``.

    Yields each maximal clique as a bitmask. The outer level follows a
    degeneracy ordering for output-sensitive behavior on sparse inputs.
    """

    def bk(r: int, p: int, x: int) -> Iterator[int]:
        work.tick()
        if p == 0 and x == 0:
            yield r
            return
        pivot, best = -1, -1
        for u in bits(p | x):
            d = (adj[u] & p).bit_count()
            if d > best:
                pivot, best = u, d
        for v in bits(p & ~adj[pivot]):
            bit = 1 << v
            yield from bk(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    p = mask
    x = 0
    for v in _degeneracy_order(adj, mask):
        bit = 1 << v
        yield from bk(bit, p & adj[v], x & adj[v])
        p &= ~bit
        x |= bit


def largest_clique_orders(g: Graph, t: int, budget: int | None = None) -> dict[int, int]:
    """Order of the largest clique containing T, for every t-clique T of g.

    Keys are the vertex bitmasks of the t-cliques. One Bron-Kerbosch pass
    lists the maximal cliques, and each maximal clique Q raises every t-subset
    of Q to |Q|. With t = 1 the values are c(v), with t = 2 the edge weights
    w(e), and in general alpha(T). The budget counts recursion nodes plus
    t-subset visits.
    """
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    work = _Work(budget)
    orders: dict[int, int] = {}
    for clique in _maximal_cliques(g.adjacency, g.full_mask, work):
        size = clique.bit_count()
        if size < t:
            continue
        work.tick(comb(size, t))
        # The bits of a subset are disjoint, so their sum is its mask.
        for sub in map(sum, combinations([1 << v for v in bits(clique)], t)):
            if orders.get(sub, 0) < size:
                orders[sub] = size
    return orders


def vertex_clique_numbers(g: Graph, budget: int | None = None) -> CliqueProfile:
    """c(v) = order of the largest clique containing v, for every vertex.

    Isolated vertices get c(v) = 1 (their only clique is the singleton).
    """
    if g.n == 0:
        return CliqueProfile((), 0)
    orders = largest_clique_orders(g, 1, budget=budget)
    c = tuple(orders[1 << v] for v in range(g.n))
    return CliqueProfile(c, max(c))
