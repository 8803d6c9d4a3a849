"""Command-line front end.

Subcommands:
  optimize   calibrate a noise distribution for (epsilon, sensitivity, metric)
  sample     draw noise from a mechanism spec
  verify     empirical density-grid epsilon check for a combination
  bench      run an experiment grid from a config file, emit CSV
  synth      generate a synthetic dataset

Exit codes: 0 success, 1 config/usage error, 2 infeasible optimization,
3 partial grid failure, 4 verify found the density-grid epsilon more than
1e-6 above the closed form.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from .distributions import parse_combo, parse_spec
from .mechanisms import (
    CompoundLaplace,
    Gaussian,
    Laplace,
    RandomizedResponse,
    Staircase,
    sample_noise,
)
from .optimize import InfeasibleSpecError, SearchSpaceSpec, optimize
from .privacy import PrivacySpec, epsilon_of_combo, verify_epsilon_empirically
from .utility import METRICS, Histogram, UtilityGoal

VERIFY_TOL = 1e-6  # grid epsilon above the closed form that fails `verify`
MECHANISMS = {"laplace": Laplace, "gaussian": Gaussian, "staircase": Staircase,
              "randomized_response": RandomizedResponse}


def _build_goal(args) -> UtilityGoal:
    prior = None
    if args.metric == "mallows":
        if args.prior:
            prior = bench_mod.read_dataset(args.prior)
    elif args.metric in ("kl", "renyi"):
        if args.prior:
            prior = Histogram.from_file(args.prior)
    return UtilityGoal(
        args.metric,
        gamma=args.gamma,
        p=args.p,
        alpha=args.alpha,
        prior=prior,
    )


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_optimize(args) -> int:
    spec = SearchSpaceSpec(restarts=args.restarts, max_evals=args.max_evals)
    privacy = PrivacySpec(args.epsilon, args.sensitivity)
    goal = _build_goal(args)
    try:
        result = optimize(spec, privacy, goal, seed=args.seed)
    except InfeasibleSpecError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    text = result.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(args.seed)
    if args.combo is not None:
        mech = CompoundLaplace(parse_combo(args.combo))
    else:
        mech = parse_spec(args.mech, MECHANISMS, "mechanism")
    draws = np.atleast_1d(sample_noise(mech, rng, args.count))
    _emit("\n".join(format(x, ".12g") for x in draws) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    combo = parse_combo(args.combo)
    empirical = verify_epsilon_empirically(combo, args.sensitivity, args.step)
    closed = epsilon_of_combo(combo, args.sensitivity)
    print(f"epsilon_closed_form = {closed:.9f}")
    print(f"epsilon_density_grid = {empirical:.9f}")
    print(f"gap = {closed - empirical:.3e}")
    if empirical > closed + VERIFY_TOL:
        print(f"error: density-grid epsilon exceeds the closed form by more than "
              f"{VERIFY_TOL:g}", file=sys.stderr)
        return 4
    return 0


def _cmd_bench(args) -> int:
    grid, search, query = bench_mod.load_config(args.config)
    if args.dataset:
        data = bench_mod.read_dataset(args.dataset)
        query = query or bench_mod.QuerySpec()
        # the dataset fixes the true value; noise metrics are center-free,
        # so it is reported in the summary only
        true_value = query.true_value(data)
        print(f"# query true value: {true_value:.6g}", file=sys.stderr)
    rows = bench_mod.run_grid(grid, search)
    _emit(bench_mod.rows_to_csv(rows), args.out)
    failures = sum(1 for r in rows if r.error)
    draws = sum(r.draws for r in rows)
    print(
        f"# {len(rows)} rows, {failures} failed, {draws} noise draws consumed",
        file=sys.stderr,
    )
    return 3 if failures else 0


def _cmd_synth(args) -> int:
    data = bench_mod.generate_synthetic(
        args.kind, args.n, args.seed, rate=args.rate, value=args.value, shape=args.shape
    )
    _emit("\n".join(format(x, ".12g") for x in np.atleast_1d(data)) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcalib",
        description="noise calibration and benchmarking for differential privacy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="calibrate a noise distribution")
    p_opt.add_argument("--epsilon", type=float, required=True)
    p_opt.add_argument("--sensitivity", type=float, default=1.0)
    p_opt.add_argument("--metric", default="usefulness", choices=METRICS)
    p_opt.add_argument("--gamma", type=float, default=None)
    p_opt.add_argument("--p", type=float, default=None)
    p_opt.add_argument("--alpha", type=float, default=None)
    p_opt.add_argument("--prior", default=None,
                       help="prior file for kl/renyi, or for mallows its length (p = 1: none)")
    p_opt.add_argument("--restarts", type=int, default=SearchSpaceSpec.restarts,
                       help="most Nelder-Mead runs of the two-atom search, each "
                            "restarted from the last one's end point while it improves; "
                            "mallows/kl/renyi only (usefulness/l1/l2 and mallows p = 1 "
                            "are solved exactly)")
    p_opt.add_argument("--max-evals", type=int, default=SearchSpaceSpec.max_evals,
                       help="evaluations per run of the two-atom search; "
                            "mallows/kl/renyi only")
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=_cmd_optimize)

    p_sam = sub.add_parser("sample", help="draw noise from a mechanism")
    law = p_sam.add_mutually_exclusive_group(required=True)
    law.add_argument("--mech",
                     help='e.g. "laplace b=1" or "staircase epsilon=2 sensitivity=1"')
    law.add_argument("--combo",
                     help='compound spec, e.g. "1 gamma shape=2 scale=1"')
    p_sam.add_argument("--count", type=int, default=1)
    p_sam.add_argument("--seed", type=int, default=0)
    p_sam.add_argument("--out", default=None)
    p_sam.set_defaults(func=_cmd_sample)

    p_ver = sub.add_parser("verify", help="empirical epsilon check")
    p_ver.add_argument("--combo", required=True)
    p_ver.add_argument("--sensitivity", type=float, default=1.0)
    p_ver.add_argument("--step", type=float, default=1e-3)
    p_ver.set_defaults(func=_cmd_verify)

    p_ben = sub.add_parser("bench", help="run an experiment grid")
    p_ben.add_argument("--config", required=True)
    p_ben.add_argument("--out", default=None)
    p_ben.add_argument("--dataset", default=None, help="CSV with one numeric column")
    p_ben.set_defaults(func=_cmd_bench)

    p_syn = sub.add_parser("synth", help="generate synthetic data")
    p_syn.add_argument("--kind", required=True,
                       choices=("constant", "poisson", "histogram50"))
    p_syn.add_argument("--n", type=int, required=True)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--rate", type=float, default=5.0)
    p_syn.add_argument("--value", type=float, default=1.0)
    p_syn.add_argument("--shape", default="uniform")
    p_syn.add_argument("--out", default=None)
    p_syn.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (bench_mod.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
