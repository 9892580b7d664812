#!/usr/bin/env python3
"""Sweep seeded random graphs and tabulate bound gaps.

Example:
    python3 scripts/sweep_random_corpus.py --count 60 --seed 2000 --t 2 --t-max 4
"""

import argparse
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cliquebound.bounds import bound_reports  # noqa: E402
from cliquebound.cli import MAX_T  # noqa: E402
from cliquebound.cliques import CliqueIndex  # noqa: E402
from cliquebound.corpus import seeded_random_corpus  # noqa: E402
from cliquebound.graph import integer  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=integer, default=60)
    ap.add_argument("--seed", type=integer, default=2000)
    ap.add_argument("--t", type=integer, default=2)
    ap.add_argument("--t-max", type=integer, default=4)
    args = ap.parse_args()
    if args.count < 1:
        ap.error(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:  # Random(-s) seeds like Random(s)
        ap.error(f"--seed must be >= 0, got {args.seed}")
    if not 2 <= args.t <= args.t_max <= MAX_T:
        ap.error(f"--t and --t-max must satisfy 2 <= t <= t_max <= {MAX_T}, "
                 f"got {args.t} and {args.t_max}")

    corpus = seeded_random_corpus(
        args.count, ns=range(8, 15),
        ps=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        base_seed=args.seed,
    )
    print(f"{'graph':38s} {'t':>2s} {'N':>6s} {'localized':>12s} "
          f"{'classical':>12s} {'gap%':>7s}")
    kinds = Counter()
    for name, g in corpus:
        for rep in bound_reports(CliqueIndex(g), range(args.t, args.t_max + 1)):
            kinds[rep.outcome] += 1
            if rep.localized_zykov > 0:
                gap = 100 * (1 - Fraction(rep.true_count) / rep.localized_zykov)
                gap_s = f"{float(gap):7.2f}"
            else:
                gap_s = "      -"
            print(f"{name:38s} {rep.t:2d} {rep.true_count:6d} "
                  f"{float(rep.localized_zykov):12.3f} "
                  f"{float(rep.zykov_classical):12.3f} {gap_s}")
    print(f"\n{kinds.total()} records, {kinds['tight']} tight, {kinds['strict']} strict, "
          f"{kinds['vacuous']} vacuous")


if __name__ == "__main__":
    main()
