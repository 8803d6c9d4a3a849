#!/usr/bin/env python3
"""Expected-error regimes: tuned compound noise vs Laplace vs staircase.

Sweeps epsilon for the l1 and l2 metrics and prints a plot-ready table
showing the small-epsilon (Laplace-like) and large-epsilon
(staircase-favoured) regimes.

    python scripts/error_regimes.py --metric l2
"""

import argparse

from dpcalib.optimize import SearchSpaceSpec, optimize
from dpcalib.privacy import PrivacySpec
from dpcalib.utility import UtilityGoal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metric", choices=("l1", "l2"), default="l2")
    parser.add_argument("--sensitivity", type=float, default=1.0)
    parser.add_argument("--epsilons", type=float, nargs="+",
                        default=[0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    spec = SearchSpaceSpec()
    goal = UtilityGoal(args.metric)
    print("epsilon,tuned,laplace,staircase,tuned_over_laplace")
    for eps in args.epsilons:
        cal = optimize(spec, PrivacySpec(eps, args.sensitivity), goal, seed=args.seed)
        print(f"{eps:g},{cal.predicted_utility:.6g},"
              f"{cal.baseline_laplace_utility:.6g},{cal.staircase_utility:.6g},"
              f"{cal.predicted_utility / cal.baseline_laplace_utility:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
