#!/usr/bin/env python3
"""Run transfer descents from random simplex starts and print the traces.

Example:
    python3 scripts/descent_demo.py --graph petersen --t 2 --starts 3 --seed 1
"""

import argparse
import random

from cliquebound.cliques import vertex_clique_numbers
from cliquebound.corpus import named_small_graphs
from cliquebound.simplex import (
    SimplexPoint,
    check_minimizer_structure,
    descend_to_clique_support,
    eval_phi,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="C5", choices=sorted(named_small_graphs()))
    ap.add_argument("--t", type=int, default=2)
    ap.add_argument("--starts", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g = named_small_graphs()[args.graph]
    profile = vertex_clique_numbers(g)
    rng = random.Random(args.seed)

    uniform = SimplexPoint.uniform(g.n)
    phi_u = eval_phi(g, args.t, profile, uniform).phi
    print(f"{args.graph}: n={g.n} m={g.m} omega={profile.omega} "
          f"phi(uniform)={phi_u}")

    starts = [uniform] + [SimplexPoint.random_point(g.n, rng)
                          for _ in range(args.starts - 1)]
    for k, x0 in enumerate(starts):
        trace = descend_to_clique_support(g, args.t, profile, x0)
        label = "uniform" if k == 0 else f"random#{k}"
        print(f"\nstart {label}: phi={eval_phi(g, args.t, profile, x0).phi}")
        for line in trace.to_lines():
            print("  " + line)
        end_phi = eval_phi(g, args.t, profile, trace.end).phi
        print(f"  end: support={sorted(trace.end.support)} "
              f"clique_order={trace.omega_end} phi={end_phi}")

    report = check_minimizer_structure(g, args.t, profile=profile)
    if report.applicable:
        print(f"\nuniform point is a certified minimizer: "
              f"complete_multipartite={report.is_complete_multipartite} "
              f"parts={report.parts.sizes if report.parts else None} "
              f"equal_part_masses={report.part_masses_equal}")
    else:
        print(f"\nuniform point not a certified minimizer "
              f"(phi(uniform)={report.phi_uniform} > 0)")


if __name__ == "__main__":
    main()
