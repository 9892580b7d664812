"""Named small graphs and seeded random corpora used by selfcheck and tests."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .graph import Graph, generate_complete_multipartite, generate_random


def complete_graph(n: int) -> Graph:
    return generate_complete_multipartite([1] * n) if n else Graph(0, ())


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def paw_graph() -> Graph:
    """Triangle {0,1,2} with a pendant vertex 3 attached to 0."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def octahedron() -> Graph:
    return generate_complete_multipartite([2, 2, 2])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def blow_up(g: Graph, w) -> Graph:
    """G[w]: each vertex v of ``g`` becomes ``w[v]`` pairwise non-adjacent
    copies, each adjacent to every copy of each neighbour of v."""
    first = list(accumulate(w, initial=0))  # copies of v: first[v]..first[v + 1] - 1
    return Graph.from_edges(first[-1], [
        (a, b) for u, v in g.edges()
        for a in range(first[u], first[u + 1]) for b in range(first[v], first[v + 1])])


def named_small_graphs() -> dict[str, Graph]:
    return {
        "K4": complete_graph(4),
        "C5": cycle_graph(5),
        "paw": paw_graph(),
        "octahedron": octahedron(),
        "P4": path_graph(4),
        "star5": star_graph(5),
        "petersen": petersen_graph(),
        "empty3": empty_graph(3),
        "K33": generate_complete_multipartite([3, 3]),
    }


def random_graph_name(n: int, p: Fraction, seed: int) -> str:
    """The name of G(n, p) drawn with ``seed``, e.g. random_n8_p1-2_seed11."""
    return f"random_n{n}_p{p.numerator}-{p.denominator}_seed{seed}"


def seeded_random_corpus(count: int, ns, ps, base_seed: int) -> list[tuple[str, Graph]]:
    """Deterministic list of (name, graph): cycles through (n, p) pairs."""
    ns = list(ns)
    ps = [Fraction(p) for p in ps]
    out = []
    for k in range(count):
        n = ns[k % len(ns)]
        p = ps[(k // len(ns)) % len(ps)]
        seed = base_seed + k
        out.append((random_graph_name(n, p, seed), generate_random(n, p, seed)))
    return out


def regular_multipartite_family() -> list[tuple[str, Graph]]:
    """The nine K_{s x r} with s in 1..3 and r in 2..4, as (name, graph)."""
    return [(f"K_{s}x{r}", generate_complete_multipartite([s] * r))
            for s in (1, 2, 3) for r in (2, 3, 4)]
