"""Exact clique counting and largest-containing-clique orders over bitset
adjacency.

A ``CliqueIndex`` keeps the maximal cliques that one pivoted Bron-Kerbosch
search finds, numbered smallest first (equal orders by mask), and, per
vertex, the bitset of the ids of the cliques that hold it, whose highest bit
names a largest clique holding the vertex. The bitsets are the transpose of
the cliques x vertices bit matrix, built by ``graph.transpose``, which the
graph6 decoder shares. The index reads c(v) off them once, as ``c``, with
omega as ``omega``. One counting walk reads off them, for every order t a
run asks for at once, the order alpha(T) of the largest clique containing
each t-clique T (c(v) at t = 1, w(e) at t = 2), and the index keeps per t
the histogram of alpha, whose total is N(G, K_t). At each node, a clique C
and its candidates, the walk counts every clique that extends C inside C's
largest clique K in one step, by binomial coefficients, and expands only the
candidates outside K: the pivot rule of Jain and Seshadhri, "The power of
pivoting for exact clique counting" (WSDM 2020). So K_n is one node. The
walk visits only nodes that the walk for one of those orders alone would
visit, so it is charged at most the sum of theirs. The index also runs the
simplex's integer-weighted clique sums, at one point by ``weight_sum`` or at
every point of any iterable, a lazy stream included, by ``weight_sums``,
which reads the points ``CHUNK`` at a time, sums each chunk in one walk and
yields each point with its sum; so the sampled simplex points share one walk
per chunk, and only the index knows the chunk size. The two sums keep their
own kernels, ``_weight_rec`` and the batched ``_weight_sums_rec``: the
descent's sums are at one point each, and running them as batches of one
took the ``descent`` row of ``scripts/kernel_times.py --workload phi-simplex
--seed 0 --reps 5`` from 15.5-15.8 ms to 26.7-27.1 ms (Python 3.11.7, 2
vCPUs), the cost of a column per vertex and a list per node.
It counts its own work as ``nodes``: each kernel charges the index it serves,
the walk one node per call, the sums one per call of the plain recursion
(``oracles.plain_weight_sum``), a walk of the batched sum once for all the
points of its chunk, and the pass one per node of the plain pivoted search
(``oracles.tomita_maximal_cliques``); the sums and the pass charge a node
whether they make the call or settle it where they find it. Every kernel
charges through ``CliqueIndex.charge``, which alone stops the work on one
graph past ``budget`` nodes.
Every function that does clique work takes the graph's ``CliqueIndex``; none
builds its own.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from math import comb
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .graph import Graph, transpose

DEFAULT_BUDGET = 5_000_000
# Points per walk of ``CliqueIndex.weight_sums``: its memory is O(n * CHUNK).
CHUNK = 64


class BudgetExceeded(RuntimeError):
    """Clique work exceeded its node budget."""

    def __init__(self, budget: int):
        super().__init__(f"clique enumeration exceeded work budget of {budget} nodes")
        self.budget = budget


def _weight_rec(adj: Sequence[int], cand: int, r: int, weights: Sequence[int],
                index: CliqueIndex) -> int:
    """The sum over the r-cliques within ``cand`` of their weights' product:
    each candidate v, in increasing order, times the (r - 1)-cliques among
    the later candidates adjacent to v, a child that is a node of its own
    when it has at least r - 1 candidates (``oracles.plain_weight_sum``).

    A node at r = 2 settles each child, a leaf that sums its candidates'
    weights, where it finds it, and charges itself and its leaves by one
    ``charge`` after its loop."""
    total = 0
    if r == 2:
        leaves = 0
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            sub = cand & adj[v]
            if sub:
                leaves += 1
                leaf = 0
                while sub:
                    low = sub & -sub
                    leaf += weights[low.bit_length() - 1]
                    sub ^= low
                total += weights[v] * leaf
        index.charge(1 + leaves)
        return total
    index.charge(1)
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
            total += weights[v] * _weight_rec(adj, sub, r - 1, weights, index)
    return total


def _lane_sum(rows: list) -> list:
    """The lane-by-lane sum of ``rows``, at least one, as a list: nested
    ``map(add, ...)`` for up to three rows, one tuple per lane only past
    that."""
    if len(rows) > 3:
        return list(map(sum, zip(*rows)))
    if len(rows) == 1:
        return list(rows[0])
    if len(rows) == 2:
        return list(map(add, *rows))
    a, b, c = rows
    return list(map(add, map(add, a, b), c))


def _leaf_sum(sub: int, columns: Sequence[list[int]]) -> list[int]:
    """The lane-by-lane sum of the columns of the vertices of ``sub``, which
    is not empty: the column itself if there is one vertex."""
    low = sub & -sub
    if sub == low:
        return columns[low.bit_length() - 1]
    rows = []
    while sub:
        low = sub & -sub
        rows.append(columns[low.bit_length() - 1])
        sub ^= low
    return _lane_sum(rows)


def _weight_sums_rec(adj: Sequence[int], cand: int, r: int, columns: Sequence[list[int]],
                     zero: list[int], index: CliqueIndex) -> list[int]:
    """``_weight_rec`` at several points in one walk, each node charged once
    for all of them: ``columns[v]`` holds v's weight at each point, and the
    result is the sum at each point, ``zero`` if there is no r-clique.

    It walks and charges as ``_weight_rec`` does, settling the leaves at
    r = 2 in place. A node adds its terms lane by lane, by ``_lane_sum``,
    so it builds no tuple for up to three of them, and a leaf with one
    candidate returns that candidate's column itself. Every node returns a
    list, never a lazy iterator, and its own lazy iterators nest at most
    three deep, whatever its number of candidates: a deep chain of
    ``map(add, ...)`` would overflow the C stack when it is read (a 200,000
    deep one crashes CPython 3.11.7 with an 8 MB stack)."""
    terms = []
    if r == 2:
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            sub = cand & adj[v]
            if sub:
                terms.append(map(mul, columns[v], _leaf_sum(sub, columns)))
        index.charge(1 + len(terms))
    else:
        index.charge(1)
        if r == 1:
            return _leaf_sum(cand, columns) if cand else zero
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            sub = cand & adj[v]
            if sub.bit_count() >= r - 1:
                terms.append(map(mul, columns[v],
                                 _weight_sums_rec(adj, sub, r - 1, columns, zero, index)))
    return _lane_sum(terms) if terms else zero


def _maximal_cliques(g: Graph, index: CliqueIndex) -> list[int]:
    """The maximal cliques of ``g`` as bitmasks in the order found, none if it
    has no vertex: one Tomita-pivoted Bron-Kerbosch search, worst-case optimal
    alone, over an explicit stack of (r, p, x) nodes, so its depth is not
    bounded by the Python call stack.

    The pass charges every node of the plain search, in which each node,
    a leaf (p empty) included, is one node: the root, and each child
    (r + v, p & N(v), x & N(v)) of a node that branches on v. A child with at
    most two candidates is not pushed but settled where it is found, and
    charged the nodes that the plain search expands below it. With p' its
    candidates, x' its excluded, xa = x' & N(a) and xb = x' & N(b):

    ==============  =================================  =====================
    p'              cliques emitted                    nodes charged
    ==============  =================================  =====================
    empty           r' iff x' is empty                 1
    {a}             r' + a iff xa is empty             2 if xa is empty,
                                                       else 1
    {a, b}, a ~ b   r' + a + b iff xa & xb is empty    3 if xa & xb is
                                                       empty, else 1
    {a, b}, a !~ b  r' + a iff xa is empty,            1 if xa & xb is not
                    r' + b iff xb is empty             empty; 3 if xa and xb
                                                       are empty; else 2
    ==============  =================================  =====================

    Each row follows from the pivot rule, the first vertex of p' | x' with
    the most neighbours in p'; the node branches on the candidates that are
    not the pivot's neighbours, and a candidate is not its own neighbour.
    A vertex of x' adjacent to every candidate is the pivot if there is one,
    and leaves no branch: the node alone, and no clique (each row's 1).
    Otherwise, with p' = {a}, no vertex has two neighbours in p', the pivot
    is not adjacent to a, and the node branches on a, to the leaf r' + a.
    With a ~ b, the pivot is adjacent to exactly one of a and b, so the node
    branches on the other alone, to a child with the one candidate left and
    no excluded vertex adjacent to it, which emits r' + a + b at its leaf.
    With a !~ b, the pivot is the first vertex of x' adjacent to one of
    them if there is one, say to a, and the node branches on b alone, to the
    leaf r' + b, maximal iff xb is empty; if xa and xb are both empty,
    the pivot is adjacent to neither, and the node branches on a and then
    b, two leaves, r' + a iff xa and r' + b iff xb is empty (a is excluded
    at b's, but is not b's neighbour).

    Each popped node is charged with the children it settles by one
    ``charge`` after its loop.
    """
    adj = g.adjacency
    out: list[int] = []
    stack = [(0, g.full_mask, 0)] if g.n else []
    while stack:
        r, p, x = stack.pop()
        nodes = 1
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
            near = adj[v]
            sub = p & near
            p ^= low
            xs = x & near
            x |= low
            if not sub:
                nodes += 1
                if not xs:
                    out.append(r | low)
            elif sub.bit_count() > 2:
                stack.append((r | low, sub, xs))
            else:
                # Settled here, by the table above; a and b are bits.
                b = sub & (sub - 1)
                a = sub ^ b
                xa = xs & adj[a.bit_length() - 1]
                if not b:
                    if xa:
                        nodes += 1
                    else:
                        nodes += 2
                        out.append(r | low | a)
                else:
                    near = adj[b.bit_length() - 1]
                    xb = xs & near
                    if xa & xb:
                        nodes += 1
                    elif near & a:
                        nodes += 3
                        out.append(r | low | sub)
                    else:
                        nodes += 2 if xa or xb else 3
                        if not xa:
                            out.append(r | low | a)
                        if not xb:
                            out.append(r | low | b)
        index.charge(nodes)
    return out


def _count(adj: Sequence[int], member: Sequence[int], cliques: Sequence[int],
           sizes: Sequence[int], plan: Sequence[tuple], cand: int, depth: int,
           shared: int, index: CliqueIndex) -> None:
    """Count the cliques of every requested order that extend a clique C of
    ``depth`` vertices by vertices of ``cand``, the candidates adjacent to
    all of C.

    ``shared`` holds the ids of the maximal cliques that hold C. Ids run
    smallest first, so for the id set ``ids`` of a clique, ``cliques[i]``
    with i = ``ids.bit_length() - 1`` is a largest clique holding it and
    ``sizes[i]`` its order alpha. (Only the root of the empty graph has no
    ids; it is walked with both lists ``[0]``.) Let K be C's: every set S
    of candidates inside K gives a clique C + S of alpha |K|, so each
    requested order counts all of them in one step. Every other clique is
    counted under its first candidate v outside K, as child C + v, whose
    candidates are the inside ones and the outside ones after v.

    ``plan[depth]`` is (bulk, hist, target): ``bulk`` pairs the histogram of
    each requested order above ``depth`` with that order minus ``depth``;
    ``hist[alpha]`` counts the children when order depth + 1 is requested,
    else it is None; ``target`` is the next requested order past depth + 1,
    or one past the clique number if none follows. A child is expanded only
    while target is in reach: its alpha, and depth + 1 plus its candidates,
    reach it. So a call at depth d is a node of the walk for the smallest
    requested order above d alone, and with one order requested the calls
    are exactly that walk's.
    """
    index.charge(1)
    bulk, hist, target = plan[depth]
    top = shared.bit_length() - 1
    inside = cand & cliques[top]
    k = inside.bit_count()
    for order_hist, j in bulk:
        order_hist[sizes[top]] += comb(k, j)
    outside = cand ^ inside
    need = target - depth - 1
    while outside:
        low = outside & -outside
        v = low.bit_length() - 1
        outside ^= low
        ids = shared & member[v]
        alpha = sizes[ids.bit_length() - 1]
        if hist is not None:
            hist[alpha] += 1
        if alpha >= target:
            sub = (outside | inside) & adj[v]
            if sub.bit_count() >= need:
                _count(adj, member, cliques, sizes, plan, sub, depth + 1, ids, index)


class CliqueIndex:
    """The maximal cliques of one graph, smallest first, and the count of the
    work done on them: the one object passed to every function that does
    clique work on the graph.

    One Bron-Kerbosch pass numbers the maximal cliques smallest first, and
    equal orders by mask, so that no walk depends on the order in which the
    pass finds them: ``cliques[i]`` is clique i as a vertex bitmask,
    ``sizes[i]`` its order, and ``member[v]`` the bitset of the ids of the
    cliques that hold v, whose highest bit names a largest clique holding v.
    ``member`` is ``graph.transpose(cliques, n)``, not charged to ``nodes``.
    ``c[v]`` is c(v), set once from ``member`` by ``vertex_clique_numbers``,
    and ``omega`` is max c(v), 0 on the empty graph. The
    largest-containing-clique order of every t-clique for any t, and the
    clique counts, are then read without a second pass: one counting walk
    fills the histogram of every order asked for together, and the index
    keeps each one. The bound and simplex functions read the graph, ``c`` and
    ``omega`` from the index and run their clique sums through
    ``weight_sum``, or through ``weight_sums`` over a stream of points, as
    the simplex's sampled points do. ``nodes`` counts the work done on the
    graph, in nodes: those of the pass, of each walk and of every weighted
    clique sum, a node of a batched walk once for all the points of its
    chunk. Every kernel charges its work by ``charge``, which raises
    ``BudgetExceeded`` once ``nodes`` passes ``budget``, leaving ``nodes``
    at budget + 1. So the budget caps the total work done on the graph. It
    defaults to ``DEFAULT_BUDGET``, as does the CLI's ``--budget``.
    """

    __slots__ = ("nodes", "budget", "graph", "cliques", "sizes", "member", "c", "omega",
                 "_histograms")

    def __init__(self, g: Graph, budget: int = DEFAULT_BUDGET):
        self.nodes = 0
        self.budget = budget
        self.graph = g
        cliques = _maximal_cliques(g, self)
        # By mask, then stably by order: smallest first, equal orders by mask.
        cliques.sort()
        cliques.sort(key=int.bit_count)
        self.cliques = cliques
        self.sizes = [clique.bit_count() for clique in cliques]
        self.member = transpose(cliques, g.n)
        self.c = vertex_clique_numbers(self)
        self.omega = max(self.c, default=0)
        self._histograms: dict[int, Counter] = {}

    def charge(self, k: int):
        """Charge ``k`` nodes: past ``budget``, leave ``nodes`` at budget + 1
        and raise ``BudgetExceeded``."""
        self.nodes += k
        if self.nodes > self.budget:
            self.nodes = self.budget + 1
            raise BudgetExceeded(self.budget)

    def histograms(self, ts: Iterable[int]) -> dict[int, Counter]:
        """``histogram(t)`` for each t of ``ts``; the orders not yet kept are
        counted together, by one walk.

        At each node the walk counts, for every order, the cliques inside the
        node's largest clique in one step, and goes down only through the
        candidates outside it, while the next order is in reach. It is
        charged at most the nodes of one walk per order, and for a single
        order exactly those of its walk.
        """
        ts = set(ts)
        for t in ts:
            if t < 1:
                raise ValueError(f"clique order must be >= 1, got {t}")
        todo = sorted(ts.difference(self._histograms))
        if todo:
            hists = {t: [0] * (self.omega + 1) for t in todo}
            # No node lies deeper than omega - 1; the root is depth 0.
            plan = [([(hists[t], t - depth) for t in todo if t > depth],
                     hists.get(depth + 1),
                     next((t for t in todo if t > depth + 1), self.omega + 1))
                    for depth in range(max(1, min(todo[-1], self.omega)))]
            # Every id may be shared at the root: smaller cliques never
            # change the highest bit.
            _count(self.graph.adjacency, self.member, self.cliques or [0], self.sizes or [0],
                   plan, self.graph.full_mask, 0, (1 << len(self.sizes)) - 1, self)
            for t, hist in hists.items():
                self._histograms[t] = Counter({a: k for a, k in enumerate(hist) if k})
        return {t: self._histograms[t] for t in ts}

    def histogram(self, t: int) -> Counter:
        """Number of t-cliques per largest-containing-clique order alpha(T);
        the total is N(G, K_t).

        Kept per t, so each t is counted, and charged, once per index.
        Callers share the one ``Counter`` and must not mutate it.
        """
        return self.histograms((t,))[t]

    def weight_sum(self, mask: int, t: int, weights: Sequence[int]) -> int:
        """Sum over the t-cliques within ``mask`` of their vertex weights' product."""
        if t < 1:
            raise ValueError(f"clique order must be >= 1, got {t}")
        return _weight_rec(self.graph.adjacency, mask, t, weights, self)

    def weight_sums(self, mask: int, t: int,
                    points: Iterable[Sequence[int]]) -> Iterator[tuple[Sequence[int], int]]:
        """``(p, weight_sum(mask, t, p))`` for each p of ``points``, in order,
        from one walk over the t-cliques of ``mask`` per ``CHUNK`` points:
        each node of a walk is charged once for every point of its chunk.

        ``points`` may be any iterable, a lazy stream included: it is read
        ``CHUNK`` points at a time, as the pairs are asked for. ValueError on
        t < 1 at the call, before any point is read."""
        if t < 1:
            raise ValueError(f"clique order must be >= 1, got {t}")
        return self._weight_sums(mask, t, iter(points))

    def _weight_sums(self, mask: int, t: int, points: Iterator[Sequence[int]]):
        while chunk := list(islice(points, CHUNK)):
            yield from zip(chunk, _weight_sums_rec(self.graph.adjacency, mask, t,
                                                   list(map(list, zip(*chunk))),
                                                   [0] * len(chunk), self))


def count_cliques(index: CliqueIndex, t: int) -> int:
    """Exact number of t-vertex cliques in the index's graph."""
    return index.histogram(t).total()


def vertex_clique_numbers(index: CliqueIndex) -> tuple[int, ...]:
    """c(v) = order of the largest clique containing v, for every vertex: the
    highest id that holds v names a largest clique. ``CliqueIndex`` calls it
    once and keeps the result as ``index.c``; read that instead.

    Isolated vertices are maximal 1-cliques, so c(v) = 1.
    """
    return tuple(index.sizes[ids.bit_length() - 1] for ids in index.member)
