#!/usr/bin/env python3
"""Run transfer descents from random simplex starts and print the traces.

The closing verdict reads the bound report of (graph, t): tight with its
regular-complete-multipartite certificate, strict, or vacuous when t > omega
(both sides of the bound are 0, so phi(uniform) = 0 says nothing).

Example:
    python3 scripts/descent_demo.py --graph petersen --t 2 --starts 3 --seed 1
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cliquebound.bounds import InvariantError, bound_report  # noqa: E402
from cliquebound.cli import MAX_T  # noqa: E402
from cliquebound.cliques import CliqueIndex  # noqa: E402
from cliquebound.corpus import named_small_graphs  # noqa: E402
from cliquebound.graph import integer, rational_text  # noqa: E402
from cliquebound.simplex import (  # noqa: E402
    SimplexPoint,
    descend_to_clique_support,
    descent_end_phi,
    eval_phi,
)


def verdict(rep) -> tuple[str, str]:
    """The verdict of the bound report ``rep`` and its reason."""
    if rep.outcome == "vacuous":
        return (f"vacuous, t = {rep.t} > omega = {rep.omega}",
                "N = localized bound = 0, so phi(uniform) = 0 certifies nothing")
    if rep.outcome == "tight":
        return (f"tight, certificate {rep.extremal_certificate}",
                f"N = localized bound = {rational_text(rep.localized_zykov)}, "
                "so phi(uniform) = 0 is the minimum of phi")
    return (f"strict, N = {rep.true_count} < localized bound {rational_text(rep.localized_zykov)}",
            "phi(uniform) = (localized bound - N) / n^t > 0")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="C5", choices=sorted(named_small_graphs()))
    ap.add_argument("--t", type=integer, default=2)
    ap.add_argument("--starts", type=integer, default=3)
    ap.add_argument("--seed", type=integer, default=0)
    args = ap.parse_args()
    if not 2 <= args.t <= MAX_T:
        ap.error(f"--t must satisfy 2 <= t <= {MAX_T}, got {args.t}")
    if args.starts < 1:
        ap.error(f"--starts must be >= 1, got {args.starts}")
    if args.seed < 0:  # Random(-s) seeds like Random(s)
        ap.error(f"--seed must be >= 0, got {args.seed}")
    try:
        run(args)
    except InvariantError as e:  # a broken relation: exit 1, as the CLI does
        ap.exit(1, f"{ap.prog}: error: {args.graph}: t={e.t}: {e}\n")


def run(args):
    """Print the descents from ``args.starts`` points and the verdict."""
    g = named_small_graphs()[args.graph]
    index = CliqueIndex(g)
    report = bound_report(index, args.t)
    rng = random.Random(args.seed)

    uniform = SimplexPoint.uniform(g.n)
    phi_u = eval_phi(index, args.t, uniform).phi
    print(f"{args.graph}: n={g.n} m={g.m} omega={report.omega} "
          f"phi(uniform)={rational_text(phi_u)}")

    starts = [uniform] + [SimplexPoint.random_point(g.n, rng)
                          for _ in range(args.starts - 1)]
    for k, x0 in enumerate(starts):
        phi0 = phi_u if k == 0 else eval_phi(index, args.t, x0).phi
        trace = descend_to_clique_support(index, args.t, x0, phi0)
        label = "uniform" if k == 0 else f"random#{k}"
        print(f"\nstart {label}: phi={rational_text(phi0)}")
        for line in trace.to_lines():
            print("  " + line)
        end_phi = descent_end_phi(index, args.t, trace, phi0)
        print(f"  end: support={sorted(trace.end.support)} "
              f"clique_order={trace.omega_end} phi={rational_text(end_phi)}")

    outcome, reason = verdict(report)
    print(f"\nverdict: {outcome}\n  {reason}")


if __name__ == "__main__":
    main()
