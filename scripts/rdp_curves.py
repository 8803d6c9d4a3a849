#!/usr/bin/env python3
"""Renyi-DP curves for the four supported mechanisms at matched pure-DP level.

Prints a plot-ready table of the order-alpha privacy level for Laplace,
randomized response, a tuned compound mechanism, and a Gaussian
reference, all normalized to unit sensitivity.  The compound column is
an upper bound: the least of the law's epsilon, alpha epsilon^2 / 2 and
the Renyi level of a mechanism that also releases the drawn scale (see
`dpcalib.privacy.rdp_of`).  Each value is printed to 17 significant
digits, so the table holds its floats exactly.

    python scripts/rdp_curves.py --epsilon 1.0
"""

import argparse
import math

from dpcalib.mechanisms import Gaussian, Laplace, RandomizedResponse, gaussian_sigma
from dpcalib.optimize import SearchSpaceSpec, optimize
from dpcalib.privacy import PrivacySpec, rdp_of
from dpcalib.utility import UtilityGoal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--gamma", type=float, default=0.5,
                        help="usefulness target used to tune the compound mechanism")
    parser.add_argument("--delta", type=float, default=1e-5,
                        help="delta for the Gaussian reference")
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0, 16.0, 64.0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    eps = args.epsilon
    lap = Laplace(1.0 / eps)
    rr = RandomizedResponse(math.exp(eps) / (1.0 + math.exp(eps)))
    gauss = Gaussian(gaussian_sigma(eps, args.delta, 1.0))
    tuned = optimize(
        SearchSpaceSpec(), PrivacySpec(eps, 1.0),
        UtilityGoal("usefulness", gamma=args.gamma), seed=args.seed,
    )

    print("alpha,laplace,randomized_response,compound,gaussian")
    for alpha in args.alphas:
        print(f"{alpha:g}," + ",".join(f"{rdp_of(mech, alpha).epsilon_rdp:.17g}"
                                       for mech in (lap, rr, tuned.combo, gauss)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
