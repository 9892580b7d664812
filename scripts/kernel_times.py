#!/usr/bin/env python3
"""Time each clique kernel over one benchmark workload's seeded corpus.

For every graph of the corpus this runs, each on a fresh ``CliqueIndex``:
the maximal-clique pass, ``histogram(t)`` for t = 2, 3, 4, each a walk for
one order, then ``histograms((2, 3, 4))``, the one walk that counts all
three as ``analyze --t 3 --t-max 4`` does, one ``verify_nonnegativity`` and
one transfer descent from the uniform point, both at the phi-simplex
workload's t and sample count. It prints, per pass
over the corpus, the best-of-``--reps`` milliseconds and the work nodes
that each one charged to its index's work meter. Node counts do not depend on
the machine; the milliseconds do.

The corpus comes from ``perfbench/workloads.py``, read from this checkout,
and the program timed is this checkout's ``src/``. Example:

    python3 scripts/kernel_times.py --workload phi-simplex --seed 0 --reps 3
"""

import argparse
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cliquebound.cliques import CliqueIndex  # noqa: E402
from cliquebound.simplex import (  # noqa: E402
    SimplexPoint,
    descend_to_clique_support,
    verify_nonnegativity,
)
from workloads import PHI_SAMPLES, PHI_T, WORKLOADS  # noqa: E402

KERNELS = {
    "histogram(2)": lambda index: index.histogram(2),
    "histogram(3)": lambda index: index.histogram(3),
    "histogram(4)": lambda index: index.histogram(4),
    "histograms(2,3,4)": lambda index: index.histograms((2, 3, 4)),
    "verify_nonnegativity": lambda index: verify_nonnegativity(index, PHI_T, PHI_SAMPLES, 0),
    "descent": lambda index: descend_to_clique_support(
        index, PHI_T, SimplexPoint.uniform(index.graph.n)),
}
PASS = "maximal-clique pass"


def time_graph(g) -> dict[str, tuple[float, int]]:
    """Seconds and work nodes of each kernel on one graph."""
    start = time.perf_counter()
    index = CliqueIndex(g)
    times = {PASS: (time.perf_counter() - start, index.work.nodes)}
    for name, kernel in KERNELS.items():
        index = CliqueIndex(g)
        before = index.work.nodes
        start = time.perf_counter()
        kernel(index)
        times[name] = (time.perf_counter() - start, index.work.nodes - before)
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")

    graphs = [item.graph for item in WORKLOADS[args.workload].corpus(args.seed)]
    best: dict[str, float] = {}
    nodes: dict[str, int] = {}
    for _ in range(args.reps):
        seconds = dict.fromkeys([PASS, *KERNELS], 0.0)
        nodes = dict.fromkeys(seconds, 0)
        for g in graphs:
            for name, (s, k) in time_graph(g).items():
                seconds[name] += s
                nodes[name] += k
        best = {name: min(s, best.get(name, s)) for name, s in seconds.items()}

    print(f"workload {args.workload}, seed {args.seed}, {len(graphs)} graphs, "
          f"best of {args.reps} (Python {platform.python_version()})")
    print(f"{'kernel':<22} {'ms/pass':>10} {'nodes/pass':>12}")
    for name in best:
        print(f"{name:<22} {1000 * best[name]:>10.1f} {nodes[name]:>12}")


if __name__ == "__main__":
    main()
