#!/usr/bin/env python3
"""Tuned-vs-baseline usefulness over an (epsilon, sensitivity, gamma) grid.

Writes the plot-ready CSV produced by the bench harness.

    python scripts/usefulness_grid.py --out usefulness.csv --seed 7
"""

import argparse
import sys

from dpcalib.bench import ExperimentGrid, run_grid, write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="usefulness_grid.csv")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trials", type=int, default=5000)
    args = parser.parse_args()

    grid = ExperimentGrid(
        epsilons=(0.5, 1.0, 2.0, 3.0, 5.0, 8.0),
        sensitivities=(0.5, 1.0),
        metric="usefulness",
        metric_params=(0.1, 0.4, 0.6, 0.9),
        mechanisms=("compound", "laplace", "staircase"),
        trials=args.trials,
        master_seed=args.seed,
    )
    rows = run_grid(grid)
    write_csv(rows, args.out)
    wins = sum(
        1 for r in rows
        if r.mechanism == "compound" and not r.error
        and r.utility_analytic >= _cell_best(rows, r) - 1e-9
    )
    total = sum(1 for r in rows if r.mechanism == "compound")
    print(f"wrote {len(rows)} rows to {args.out}; tuned mechanism leads in "
          f"{wins}/{total} cells", file=sys.stderr)
    return 0


def _cell_best(rows, ref):
    vals = [
        r.utility_analytic for r in rows
        if not r.error
        and (r.epsilon_target, r.sensitivity, r.metric_param)
        == (ref.epsilon_target, ref.sensitivity, ref.metric_param)
    ]
    return max(vals)


if __name__ == "__main__":
    raise SystemExit(main())
