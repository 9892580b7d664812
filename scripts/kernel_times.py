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
one or more ``--graph`` paths time the same kernels at scale, one table per
graph file. Each path is a ``.g6`` or ``.el`` file or a directory of them,
read as ``cliquebound analyze`` reads its inputs, so ``cliquebound
generate`` writes the graphs; an unreadable or malformed file, or a path
that holds no graph file, is a usage error with exit 2. A kernel whose work
passes the default budget ends the run with one error line and exit 3, and
a broken invariant (a negative phi) with one error line and exit 1, as the
CLI does. Examples:

    python3 scripts/kernel_times.py --workload phi-simplex --seed 0 --reps 3
    PYTHONPATH=src python3 -m cliquebound generate multipartite --parts 7,7,6 --out turan
    python3 scripts/kernel_times.py --graph turan/multipartite_7x2-6x1.g6
"""

import argparse
import platform
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cliquebound.bounds import InvariantError  # noqa: E402
from cliquebound.cli import collect_inputs, load_graph_file  # noqa: E402
from cliquebound.cliques import BudgetExceeded, CliqueIndex  # noqa: E402
from cliquebound.graph import GraphError, integer  # noqa: E402
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
    source.add_argument("--graph", action="append", metavar="PATH",
                        help="a .g6 or .el file, or a directory of them; repeatable")
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
        for arg in args.graph:
            paths = collect_inputs([arg])
            if not paths:
                ap.error(f"--graph {arg}: no .g6 or .el file")
            for path in paths:
                try:
                    g = load_graph_file(path)
                except (OSError, GraphError) as e:
                    ap.error(f"--graph {path}: {e}")
                tables.append((f"graph {path.name}", f"n {g.n}, m {g.m}, {python}", [g]))

    for k, (title, details, graphs) in enumerate(tables):
        try:
            best, nodes = time_corpus(graphs, args.reps)
        except BudgetExceeded as e:  # exit 3, as the CLI does
            ap.exit(3, f"{ap.prog}: error: {title}: {e}\n")
        except InvariantError as e:  # a broken relation: exit 1, as the CLI does
            ap.exit(1, f"{ap.prog}: error: {title}: t={e.t}: {e}\n")
        if k:
            print()
        print(f"{title}, {details}")
        print(f"{'kernel':<22} {'ms/pass':>10} {'nodes/pass':>12}")
        for name in best:
            print(f"{name:<22} {1000 * best[name]:>10.1f} {nodes[name]:>12}")


if __name__ == "__main__":
    main()
