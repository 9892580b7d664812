"""Exact clique counting and largest-containing-clique orders over bitset
adjacency.

Maximal-clique enumeration uses Bron-Kerbosch with pivoting under a
degeneracy vertex ordering. A ``CliqueIndex`` keeps the orders of one pass's
maximal cliques and, per vertex, the bitset of the cliques that hold it. One
walk by ordered recursive expansion (each t-clique enumerated once, in
increasing vertex order) reads off it the order of the largest clique
containing each t-clique, for any t: c(v), w(e) and alpha(T), and so the
count N(G, K_t). The index also runs the simplex's integer-weighted clique
sums, and charges all of it to its one work meter, whose budget, counted in
recursion nodes, caps the work done on one graph. Every function that does
clique work takes the graph's ``CliqueIndex``; none builds its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import Graph

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

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(self.budget)


def _weight_rec(adj: Sequence[int], cand: int, r: int, weights: Sequence[int],
                work: _Work) -> int:
    work.tick()
    total = 0
    if r == 1:
        while cand:
            low = cand & -cand
            total += weights[low.bit_length() - 1]
            cand ^= low
        return total
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        sub = cand & adj[v]
        if sub.bit_count() >= r - 1:
            total += weights[v] * _weight_rec(adj, sub, r - 1, weights, work)
    return total


def _degeneracy_order(adj: Sequence[int], mask: int) -> list[int]:
    """Vertices of ``mask`` ordered by repeated minimum-degree removal, ties
    going to the lowest index.

    Each vertex sits in a bitmask bucket for its degree among the remaining
    vertices; the next vertex is the lowest set bit of the lowest nonempty
    bucket. A removal lowers the minimum degree by at most one.
    """
    deg = [0] * len(adj)
    buckets = [0] * mask.bit_count()
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        deg[v] = (adj[v] & mask).bit_count()
        buckets[deg[v]] |= low
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
        nbrs = adj[v] & remaining
        while nbrs:
            bit = nbrs & -nbrs
            u = bit.bit_length() - 1
            nbrs ^= bit
            buckets[deg[u]] ^= bit
            deg[u] -= 1
            buckets[deg[u]] |= bit
        d = max(d - 1, 0)
    return order


def _bron_kerbosch(adj: Sequence[int], r: int, p: int, x: int, work: _Work,
                   out: list[int]) -> None:
    work.tick()
    if p == 0:
        if x == 0:
            out.append(r)
        return
    # Tomita pivot: the first vertex of p | x with the most neighbours in p.
    pivot, best = -1, -1
    scan = p | x
    while scan:
        low = scan & -scan
        u = low.bit_length() - 1
        scan ^= low
        d = (adj[u] & p).bit_count()
        if d > best:
            pivot, best = u, d
    branch = p & ~adj[pivot]
    while branch:
        low = branch & -branch
        v = low.bit_length() - 1
        branch ^= low
        _bron_kerbosch(adj, r | low, p & adj[v], x & adj[v], work, out)
        p ^= low
        x |= low


def _maximal_cliques(adj: Sequence[int], mask: int, work: _Work) -> list[int]:
    """Bron-Kerbosch with pivoting over the induced subgraph on ``mask``.

    Returns the maximal cliques as bitmasks, in the order the search finds
    them. The outer level follows a degeneracy ordering for output-sensitive
    behavior on sparse inputs. The recursion appends each maximal clique to
    one list passed down. It is a module-level function rather than a
    closure, so a call leaves no reference cycle behind for the cyclic
    garbage collector.
    """
    out: list[int] = []
    p = mask
    x = 0
    for v in _degeneracy_order(adj, mask):
        bit = 1 << v
        _bron_kerbosch(adj, bit, p & adj[v], x & adj[v], work, out)
        p ^= bit
        x |= bit
    return out


def _walk(adj: Sequence[int], member: Sequence[int], sizes: Sequence[int],
          cand: int, r: int, clique: int, shared: int,
          work: _Work) -> Iterator[tuple[int, int]]:
    """Yield (mask, alpha) for every clique made of ``clique`` and r vertices
    of ``cand``, by ordered expansion.

    ``shared`` is the AND of ``member`` over ``clique`` and the ids the walk
    started with: the ids of the maximal cliques that hold it. Ids run
    largest first, so at a leaf the lowest set bit names a largest clique
    holding T, and ``sizes`` gives its order alpha(T).
    """
    work.tick()
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if r == 1:
            ids = shared & member[v]
            yield clique | low, sizes[(ids & -ids).bit_length() - 1]
            continue
        if cand.bit_count() < r - 1:
            break
        sub = cand & adj[v]
        if sub.bit_count() >= r - 1:
            yield from _walk(adj, member, sizes, sub, r - 1, clique | low,
                             shared & member[v], work)


class CliqueIndex:
    """The maximal cliques of one graph, largest first, and one work meter:
    the one object passed to every function that does clique work on the
    graph.

    One Bron-Kerbosch pass numbers the maximal cliques largest first:
    ``sizes[i]`` is the order of clique i, and ``member[v]`` is the bitset of
    the ids of the cliques that hold v. The c(v) profile, the
    largest-containing-clique order of every t-clique for any t, and the
    clique counts are then read without a second pass, by one walk per t
    whose histogram the index keeps. The bound and simplex functions read the
    graph and c(v) from the index and run their clique sums through
    ``weight_sum``, so the budget caps the total work done on the graph, in
    recursion nodes: those of the pass, of each t's walk and of every
    weighted clique sum.
    """

    __slots__ = ("graph", "work", "sizes", "member", "_histograms")

    def __init__(self, g: Graph, budget: int | None = None):
        self.graph = g
        self.work = _Work(budget)
        cliques = _maximal_cliques(g.adjacency, g.full_mask, self.work)
        cliques.sort(key=int.bit_count, reverse=True)
        self.sizes = [clique.bit_count() for clique in cliques]
        member = [0] * g.n
        bit = 1
        for clique in cliques:
            while clique:
                low = clique & -clique
                member[low.bit_length() - 1] |= bit
                clique ^= low
            bit <<= 1
        self.member = member
        self._histograms: dict[int, Counter] = {}

    def walk(self, t: int) -> Iterator[tuple[int, int]]:
        """Yield (mask, alpha(T)) for every t-clique T, in increasing vertex
        order: its vertex bitmask and the order of the largest clique
        containing it. ``dict(index.walk(t))`` maps each t-clique to
        alpha(T): to c(v) at t = 1 and to w(e) at t = 2."""
        if t < 1:
            raise ValueError(f"clique order must be >= 1, got {t}")
        # Only the cliques of order >= t, ids 0..k-1, hold a t-clique, so the
        # walk starts from them and from the vertices they cover.
        large = (1 << sum(1 for size in self.sizes if size >= t)) - 1
        cand = sum(1 << v for v, ids in enumerate(self.member) if ids & large)
        return _walk(self.graph.adjacency, self.member, self.sizes, cand, t, 0, large,
                     self.work)

    def histogram(self, t: int) -> Counter:
        """Number of t-cliques per largest-containing-clique order; the total
        is N(G, K_t).

        Kept per t, so each t's walk runs, and is charged, once per index.
        Callers share the one ``Counter`` and must not mutate it.
        """
        histogram = self._histograms.get(t)
        if histogram is None:
            histogram = self._histograms[t] = Counter(alpha for _, alpha in self.walk(t))
        return histogram

    def weight_sum(self, mask: int, t: int, weights: Sequence[int]) -> int:
        """Sum over the t-cliques within ``mask`` of their vertex weights' product."""
        if t < 1:
            raise ValueError(f"clique order must be >= 1, got {t}")
        return _weight_rec(self.graph.adjacency, mask, t, weights, self.work)


def count_cliques(index: CliqueIndex, t: int) -> int:
    """Exact number of t-vertex cliques in the index's graph."""
    return index.histogram(t).total()


def vertex_clique_numbers(index: CliqueIndex) -> CliqueProfile:
    """c(v) = order of the largest clique containing v, for every vertex: the
    lowest id that holds v names a largest clique.

    Isolated vertices are maximal 1-cliques, so c(v) = 1.
    """
    c = tuple(index.sizes[(ids & -ids).bit_length() - 1] for ids in index.member)
    return CliqueProfile(c, index.sizes[0] if index.sizes else 0)
