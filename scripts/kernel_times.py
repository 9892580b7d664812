#!/usr/bin/env python3
"""Time each clique kernel over one benchmark workload's seeded corpus.

For every graph of the corpus this runs, each on a fresh ``CliqueIndex``:
the maximal-clique pass, ``histogram(t)`` for t = 2, 3, 4, each a walk for
one order, then ``histograms((2, 3, 4))``, the one walk that counts all
three as ``analyze --t 3 --t-max 4`` does, one ``verify_nonnegativity`` and
one transfer descent from the uniform point, both at the phi-simplex
workload's t and sample count. The descent starts from phi(uniform), as
``phi`` starts it from the sampled value; that value is read before the
timed region and its walk is not counted. It prints, per pass
over the corpus, the best-of-``--reps`` milliseconds and the work nodes
that each one charged to its index, read off ``index.nodes``. Node counts
do not depend on the machine; the milliseconds do.

The corpus comes from ``perfbench/workloads.py``, read from this checkout,
and the program timed is this checkout's ``src/``. Instead of a workload,
one or more ``--graph`` specs time the same kernels at scale, one table per
graph: ``gnp:N:P:SEED`` is the seeded G(N, P), P a fraction such as 1/2, and
``multipartite:SxR`` is K_{SxR}, R parts of S vertices; their numbers are
read by ``graph.integer`` and ``graph.rational``. A kernel whose work
passes the default budget ends the run with one error line and exit 3, as
the CLI does. Examples:

    python3 scripts/kernel_times.py --workload phi-simplex --seed 0 --reps 3
    python3 scripts/kernel_times.py --graph multipartite:4x9 --graph gnp:140:1/2:1
"""

import argparse
import platform
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cliquebound.cliques import BudgetExceeded, CliqueIndex  # noqa: E402
from cliquebound.graph import (  # noqa: E402
    Graph,
    generate_complete_multipartite,
    generate_random,
    integer,
    rational,
)
from cliquebound.simplex import (  # noqa: E402
    SimplexPoint,
    descend_to_clique_support,
    eval_phi,
    verify_nonnegativity,
)
from workloads import PHI_SAMPLES, PHI_T, WORKLOADS  # noqa: E402


def descent(index: CliqueIndex):
    """The descent from the uniform point, given phi(uniform) as its start."""
    x0 = SimplexPoint.uniform(index.graph.n)
    return partial(descend_to_clique_support, index, PHI_T, x0, eval_phi(index, PHI_T, x0).phi)


# Each kernel's set-up, which returns the call to time; the set-up itself is
# neither timed nor counted.
KERNELS = {
    "histogram(2)": lambda index: partial(index.histogram, 2),
    "histogram(3)": lambda index: partial(index.histogram, 3),
    "histogram(4)": lambda index: partial(index.histogram, 4),
    "histograms(2,3,4)": lambda index: partial(index.histograms, (2, 3, 4)),
    "verify_nonnegativity": lambda index: partial(verify_nonnegativity, index, PHI_T,
                                                  PHI_SAMPLES, 0),
    "descent": descent,
}
PASS = "maximal-clique pass"


def time_graph(g) -> dict[str, tuple[float, int]]:
    """Seconds and work nodes of each kernel on one graph."""
    start = time.perf_counter()
    index = CliqueIndex(g)
    times = {PASS: (time.perf_counter() - start, index.nodes)}
    for name, set_up in KERNELS.items():
        index = CliqueIndex(g)
        kernel = set_up(index)
        before = index.nodes
        start = time.perf_counter()
        kernel()
        times[name] = (time.perf_counter() - start, index.nodes - before)
    return times


def parse_graph_spec(spec: str) -> Graph:
    """The graph that a ``--graph`` spec names; ValueError if it is malformed."""
    kind, _, rest = spec.partition(":")
    fields = rest.split(":")
    if kind == "gnp" and len(fields) == 3:
        n, p, seed = integer(fields[0]), rational(fields[1]), integer(fields[2])
        if n >= 1:
            return generate_random(n, p, seed)
    if kind == "multipartite" and len(fields) == 1:
        s, x, r = fields[0].partition("x")
        if x and integer(r) >= 1:
            return generate_complete_multipartite([integer(s)] * integer(r))
    raise ValueError("expected gnp:N:P:SEED with N >= 1 or multipartite:SxR with R >= 1")


def time_corpus(graphs, reps: int) -> tuple[dict[str, float], dict[str, int]]:
    """Best-of-``reps`` seconds and the work nodes of each kernel, summed over
    ``graphs``."""
    best: dict[str, float] = {}
    nodes: dict[str, int] = {}
    for _ in range(reps):
        seconds = dict.fromkeys([PASS, *KERNELS], 0.0)
        nodes = dict.fromkeys(seconds, 0)
        for g in graphs:
            for name, (s, k) in time_graph(g).items():
                seconds[name] += s
                nodes[name] += k
        best = {name: min(s, best.get(name, s)) for name, s in seconds.items()}
    return best, nodes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=sorted(WORKLOADS))
    source.add_argument("--graph", action="append", metavar="SPEC",
                        help="gnp:N:P:SEED or multipartite:SxR; repeatable")
    ap.add_argument("--seed", type=integer, default=0)
    ap.add_argument("--reps", type=integer, default=3)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")

    python = f"best of {args.reps} (Python {platform.python_version()})"
    if args.workload:
        graphs = [item.graph for item in WORKLOADS[args.workload].corpus(args.seed)]
        tables = [(f"workload {args.workload}", f"seed {args.seed}, {len(graphs)} graphs, "
                   f"{python}", graphs)]
    else:
        tables = []
        for spec in args.graph:
            try:
                g = parse_graph_spec(spec)
            except ValueError as e:
                ap.error(f"--graph {spec}: {e}")
            tables.append((f"graph {spec}", f"n {g.n}, m {g.m}, {python}", [g]))

    for k, (title, details, graphs) in enumerate(tables):
        try:
            best, nodes = time_corpus(graphs, args.reps)
        except BudgetExceeded as e:  # exit 3, as the CLI does
            ap.exit(3, f"{ap.prog}: error: {title}: {e}\n")
        if k:
            print()
        print(f"{title}, {details}")
        print(f"{'kernel':<22} {'ms/pass':>10} {'nodes/pass':>12}")
        for name in best:
            print(f"{name:<22} {1000 * best[name]:>10.1f} {nodes[name]:>12}")


if __name__ == "__main__":
    main()
