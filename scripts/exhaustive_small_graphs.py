#!/usr/bin/env python3
"""Check the clique index against the brute-force oracles on every labelled
graph with at most ``--max-n`` vertices.

For each graph it checks, with an exact ``==``:

- the maximal-clique pass: ``sizes`` and the vertex sets of ``cliques``,
  sorted, against ``brute_maximal_cliques``;
- ``member``: bit i of ``member[v]`` is set exactly when v lies in
  ``cliques[i]``;
- the pass's work: the built index's ``nodes`` against the nodes of
  ``tomita_maximal_cliques``, the plain pivoted search that defines the
  budget unit;
- ``histograms(1..n+1)``, one counting walk for every order, and
  ``histogram(t)`` on a fresh index, one walk for order t alone, against
  ``brute_alpha_histogram`` at each order t = 1..n+1;
- ``c`` and ``omega`` against ``brute_vertex_clique_numbers``;
- the weighted clique sums on the full mask at t = 1..4: ``weight_sum`` at
  weights v + 1, and ``weight_sums`` at that point and at weights n - v, in
  one walk, against ``plain_weight_sum``, the plain recursion that defines
  their budget unit, sums and nodes alike;
- for 2 <= t <= omega, that the bound is tight (N(G, K_t) equals the
  localized bound) exactly when the graph is regular complete multipartite.

It prints one row per n and exits 1 if any check failed, naming the first
failures. There are 2^(n(n-1)/2) labelled graphs on n vertices: 1,100 up to
n = 5 and 33,868 up to n = 6. Example:

    python3 scripts/exhaustive_small_graphs.py --max-n 6
"""

import argparse
import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cliquebound.bounds import (  # noqa: E402
    is_regular_complete_multipartite,
    localized_zykov_bound,
)
from cliquebound.cliques import CliqueIndex  # noqa: E402
from cliquebound.graph import Graph, integer, to_graph6  # noqa: E402
from cliquebound.oracles import (  # noqa: E402
    brute_alpha_histogram,
    brute_maximal_cliques,
    brute_vertex_clique_numbers,
    plain_weight_sum,
    tomita_maximal_cliques,
)

SHOWN_FAILURES = 10


def labelled_graphs(n: int):
    """Every graph on vertices 0..n-1, one per edge subset."""
    pairs = list(combinations(range(n), 2))
    for subset in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pair for i, pair in enumerate(pairs) if subset >> i & 1])


def check_graph(g: Graph) -> list[str]:
    """What the index gets wrong on ``g``, one line per failed check."""
    index = CliqueIndex(g)
    failures = []
    if index.nodes != tomita_maximal_cliques(g)[1]:
        failures.append("pass nodes")
    oracle_cliques = brute_maximal_cliques(g)
    if index.sizes != sorted(map(len, oracle_cliques)):
        failures.append("sizes")
    found = sorted(tuple(v for v in range(g.n) if clique >> v & 1) for clique in index.cliques)
    if found != sorted(oracle_cliques):
        failures.append("maximal cliques")
    if index.member != [sum(1 << i for i, clique in enumerate(index.cliques) if clique >> v & 1)
                        for v in range(g.n)]:
        failures.append("member")
    orders = range(1, g.n + 2)
    hists = index.histograms(orders)
    for t in orders:
        oracle = brute_alpha_histogram(g, t)
        if hists[t] != oracle:
            failures.append(f"histograms(1..{g.n + 1})[{t}]")
        if CliqueIndex(g).histogram(t) != oracle:
            failures.append(f"histogram({t})")
    if (index.c, index.omega) != brute_vertex_clique_numbers(g):
        failures.append("c(v)")
    # Weights v + 1, and n - v at the second point of the batched sum.
    weights, second = [v + 1 for v in range(g.n)], [g.n - v for v in range(g.n)]
    for t in range(1, 5):
        oracle, nodes = plain_weight_sum(g, g.full_mask, t, weights)
        before = index.nodes
        if (index.weight_sum(g.full_mask, t, weights), index.nodes - before) != (oracle, nodes):
            failures.append(f"weight_sum(t = {t})")
        expected = [oracle, plain_weight_sum(g, g.full_mask, t, second)[0]]
        before = index.nodes
        sums = [b for _, b in index.weight_sums(g.full_mask, t, [weights, second])]
        if (sums, index.nodes - before) != (expected, nodes):
            failures.append(f"weight_sums(t = {t})")
    regular = is_regular_complete_multipartite(g) is not None
    for t in range(2, index.omega + 1):
        if (hists[t].total() == localized_zykov_bound(index, t)) != regular:
            failures.append(f"tight at t = {t}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-n", type=integer, required=True)
    args = ap.parse_args()
    if not 0 <= args.max_n <= 7:
        ap.error(f"--max-n must be 0..7, got {args.max_n}")

    print(f"{'n':>2} {'graphs':>8} {'regular multipartite':>21} {'failures':>9}")
    total = failed = 0
    for n in range(args.max_n + 1):
        graphs = regular = bad = 0
        for g in labelled_graphs(n):
            graphs += 1
            regular += is_regular_complete_multipartite(g) is not None
            failures = check_graph(g)
            if failures:
                bad += 1
                if failed + bad <= SHOWN_FAILURES:
                    print(f"FAIL {to_graph6(g)}: {', '.join(failures)}", file=sys.stderr)
        print(f"{n:>2} {graphs:>8} {regular:>21} {bad:>9}")
        total += graphs
        failed += bad
    print(f"{total} graphs with n <= {args.max_n}, {failed} failed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
