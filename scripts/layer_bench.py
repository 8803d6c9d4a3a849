#!/usr/bin/env python3
"""Per-layer timings of the epsilon audit, with an optional before column.

Times each row directly with `timeit` and reports the median of N
repeats per row:

- vector M ns/point for each family on the 3-term ensemble's audit grid
  (245,001 radial points, step 1e-3);
- vector ln M' ns/point for each family on the same grid, through
  `log_mgf_deriv` (a side without it takes the log of `mgf_deriv`, the
  route the density grid took before it);
- scalar `mgf_deriv` us for each family at t = -a, a the law's coefficient;
- `_auto_radius`, `verify_epsilon_empirically`, `epsilon_of_combo`,
  `rdp_of` at order 2 and `usefulness_bound` at the release-audit
  workload's gamma 0.4 for each compound law of perfbench/mechanisms.ini,
  at sensitivity 1, and `verify_epsilon_empirically` for a point mass and
  CI's two-atom law;
- `verify_peak_mib` for each compound law of perfbench/mechanisms.ini: the
  peak traced memory (tracemalloc) of one `verify_epsilon_empirically`
  call at sensitivity 1, after a first call, in MiB;
- `np.exp` ns/point for results that are normal, subnormal and zero, which
  shows whether the host's exp has a slow path;
- `two_atom_optimum` us for usefulness at (epsilon, gamma) = (1, 0.4),
  which returns Laplace, (5, 0.1) and (200, 0.1), where the lower side's
  maximum sits on two peaks, for l1 and l2 at epsilon 8, and for l2 at 300;
- `run_grid` ms on three cells at the benchmark's budget, each with the
  compound, Laplace and staircase mechanisms at 2000 trials: usefulness
  at (epsilon, gamma) = (5, 0.1), and (1, 0.4), whose compound law is
  Laplace's, and l2 at epsilon 8;
- `staircase_sample` us for a 2000-draw batch at epsilon 5, and
  `noise_metric` us on 2000 Laplace draws for l2 and for usefulness at
  gamma 0.1: the per-row work of a `run_grid` cell;
- `perturb` us per release and `sample_noise` ns/draw in 200,000-draw
  batches, for each mechanism of perfbench/mechanisms.ini, a compound
  point mass and CI's two-atom law (randomized response: `perturb` only),
  and `run_query` us per release with the release-audit workload's own
  query: a count of a 1,000-record Poisson dataset, and for randomized
  response a window-1 moving average of its records' bits;
- `startup` s of a fresh interpreter, run as a subprocess with that
  side's src on PYTHONPATH: `import dpcalib`, and the CLI's usefulness
  `optimize`, a two-atom `verify` and a TruncGaussian `verify`.

    python scripts/layer_bench.py > BENCH.json
    python scripts/layer_bench.py --before ../parent/src > BENCH.json
    python scripts/layer_bench.py --quick

It prints one JSON object: machine and library versions, the inputs, and
each row's median.  dpcalib is imported from this checkout's src.  With
--before, the dpcalib under that source directory is imported too, under
another name, and each repeat of a row times both, the first of the two
alternating, so that the host's speed drift falls on both columns alike.
The np.exp rows time no dpcalib code: the gap between their two columns
shows what drift is left.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import timeit
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MECHANISMS_INI = ROOT / "perfbench" / "mechanisms.ini"
# One thread, and freed memory kept in glibc's heap, as perfbench/run.py
# runs its workloads: otherwise each large array is faulted in afresh.
# glibc reads these when the process starts, so the script restarts itself.
PROCESS_ENV = {
    **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}
SENSITIVITY = 1.0
GRID_STEP = 1e-3
GRID_POINTS = 245_001  # the ensemble's radial audit grid at sensitivity 1
RDP_ORDER = 2.0
USEFULNESS_GAMMA = 0.4  # perfbench's RELEASE_GAMMA
# (row label, epsilon, metric, gamma) of the linear-metric optimizer rows
LINEAR_GOALS = (("usefulness_gamma0.4_eps1", 1.0, "usefulness", 0.4),
                ("usefulness_gamma0.1_eps5", 5.0, "usefulness", 0.1),
                ("l1_eps8", 8.0, "l1", None),
                ("l2_eps8", 8.0, "l2", None),
                ("usefulness_gamma0.1_eps200", 200.0, "usefulness", 0.1),
                ("l2_eps300", 300.0, "l2", None))
# (row label, epsilon, metric, gamma) of the run_grid rows, and their budget
GRID_CELLS = (("usefulness_gamma0.1_eps5", 5.0, "usefulness", 0.1),
              ("usefulness_gamma0.4_eps1", 1.0, "usefulness", 0.4),
              ("l2_eps8", 8.0, "l2", None))
GRID_BUDGET = {"trials": 2000, "seed": 11, "restarts": 6, "max_evals": 150}
# the plain mechanisms of perfbench/mechanisms.ini as `sample --mech` specs,
# and compound laws that the file lacks: a point mass and CI's two-atom law
PLAIN_MECHANISMS = {"laplace": "laplace b=1.0", "staircase": "staircase epsilon=1.0",
                    "gaussian": "gaussian sigma=4.379070281321586",
                    "randomized_response": "randomized_response p=0.7310585786300049"}
EXTRA_LAWS = {"compound_point_mass": "1 degenerate value=2",
              "compound_two_atom_ci": "1.0 bernoulli p=0.3 x0=2.5 x1=40"}
BATCH = 200_000
# fresh-interpreter rows: Python code for `python -c`
CLI_CALL = "import sys; from dpcalib.cli import main; sys.exit(main({!r}))"
STARTUP = {
    "import_dpcalib": "import dpcalib",
    "optimize_usefulness": CLI_CALL.format(
        ["optimize", "--epsilon", "5", "--metric", "usefulness", "--gamma", "0.1"]),
    "verify_bernoulli": CLI_CALL.format(["verify", "--combo", EXTRA_LAWS["compound_two_atom_ci"]]),
    "verify_trunc_gaussian": CLI_CALL.format(
        ["verify", "--combo", "3.5257263661613147 trunc_gaussian mu=0.07901397154795174 "
         "sigma=9.229205844534695 lo=0.0017380827164959 hi=5.057402201497467"]),
}
# (timeit repeats per row, seconds of calls per repeat)
FULL = (21, 0.01)
QUICK = (3, 0.001)


def load_dpcalib(src: Path, name: str):
    """The dpcalib package under ``src``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "dpcalib" / "__init__.py", submodule_search_locations=[str(src / "dpcalib")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def compound_laws() -> dict[str, str]:
    parser = configparser.ConfigParser()
    parser.read(MECHANISMS_INI)
    return {name: sec["combo"].strip() for name, sec in parser.items()
            if sec.get("kind") == "compound"}


def rows(dpcalib, laws: dict[str, str]):
    """(name, unit, per-call scale, callable) for every row."""
    import numpy as np

    distributions, privacy = dpcalib.distributions, dpcalib.privacy
    combos = {name: distributions.parse_combo(text) for name, text in laws.items()}
    by_family = {d.family: (a, d) for a, d in combos["compound_ensemble"].terms}
    by_family["bernoulli"] = combos["compound_bernoulli"].terms[0]
    by_family["degenerate"] = (1.0, distributions.Degenerate(1.0))
    grid = -GRID_STEP * np.arange(GRID_POINTS)
    out = []
    for family in sorted(by_family):
        a, d = by_family[family]
        out.append((f"vector_mgf.{family}", "ns/point", 1e9 / GRID_POINTS,
                    lambda d=d, t=a * grid: d.mgf(t)))
    for family in sorted(by_family):
        a, d = by_family[family]
        log_deriv = getattr(d, "log_mgf_deriv", None) or (lambda t, d=d: np.log(d.mgf_deriv(t)))
        out.append((f"vector_log_deriv.{family}", "ns/point", 1e9 / GRID_POINTS,
                    lambda f=log_deriv, t=a * grid: f(t)))
    scalar = dict(by_family)
    scalar["trunc_gaussian.compound_trunc_gaussian"] = combos["compound_trunc_gaussian"].terms[0]
    scalar["trunc_gaussian.deep_tail"] = combos["deep_tail"].terms[0]
    for name in sorted(scalar):
        a, d = scalar[name]
        out.append((f"scalar_mgf_deriv.{name}", "us", 1e6,
                    lambda d=d, t=-a * SENSITIVITY: d.mgf_deriv(t)))
    for name in sorted(combos):
        c = combos[name]
        out.append((f"auto_radius.{name}", "us", 1e6,
                    lambda c=c: privacy._auto_radius(c, GRID_STEP, SENSITIVITY)))
        out.append((f"verify_epsilon_empirically.{name}", "ms", 1e3,
                    lambda c=c: privacy.verify_epsilon_empirically(c, SENSITIVITY)))
        out.append((f"epsilon_of_combo.{name}", "us", 1e6,
                    lambda c=c: privacy.epsilon_of_combo(c, SENSITIVITY)))
        out.append((f"rdp_of.{name}", "us", 1e6,
                    lambda c=c: privacy.rdp_of(c, RDP_ORDER, SENSITIVITY)))
        out.append((f"usefulness_bound.{name}", "us", 1e6,
                    lambda c=c: dpcalib.utility.usefulness_bound(c, USEFULNESS_GAMMA)))
    for name, text in EXTRA_LAWS.items():
        out.append((f"verify_epsilon_empirically.{name}", "ms", 1e3,
                    lambda c=distributions.parse_combo(text):
                    privacy.verify_epsilon_empirically(c, SENSITIVITY)))
    optimize = importlib.import_module(f"{dpcalib.__name__}.optimize")
    bench = importlib.import_module(f"{dpcalib.__name__}.bench")
    for label, eps, metric, gamma in LINEAR_GOALS:
        out.append((f"two_atom_optimum.{label}", "us", 1e6,
                    lambda p=privacy.PrivacySpec(eps, SENSITIVITY),
                    g=dpcalib.UtilityGoal(metric, gamma=gamma): optimize.two_atom_optimum(p, g)))
    search = optimize.SearchSpaceSpec(GRID_BUDGET["restarts"], GRID_BUDGET["max_evals"])
    for label, eps, metric, gamma in GRID_CELLS:
        grid = bench.ExperimentGrid(
            epsilons=(eps,), sensitivities=(SENSITIVITY,), metric=metric,
            metric_params=(gamma,) if gamma else (0.1,),
            mechanisms=("compound", "laplace", "staircase"),
            trials=GRID_BUDGET["trials"], master_seed=GRID_BUDGET["seed"])
        out.append((f"run_grid.{label}", "ms", 1e3, lambda g=grid: bench.run_grid(g, search)))
    draws, utility = GRID_BUDGET["trials"], dpcalib.utility
    rng = np.random.default_rng(GRID_BUDGET["seed"])
    out.append((f"staircase_sample.eps5_{draws}", "us", 1e6,
                lambda: dpcalib.mechanisms.staircase_sample(5.0, SENSITIVITY, None, rng, draws)))
    noise = rng.laplace(scale=0.2, size=draws)
    for label, goal in (("l2", utility.UtilityGoal("l2")),
                        ("usefulness_gamma0.1", utility.UtilityGoal("usefulness", gamma=0.1))):
        out.append((f"noise_metric.{label}_{draws}", "us", 1e6,
                    lambda g=goal: utility.noise_metric(g, noise)))
    cli = importlib.import_module(f"{dpcalib.__name__}.cli")
    mechanisms = dpcalib.mechanisms
    mechs = {name: distributions.parse_spec(spec, cli.MECHANISMS, "mechanism")
             for name, spec in PLAIN_MECHANISMS.items()}
    mechs |= {name: mechanisms.CompoundLaplace(distributions.parse_combo(text))
              for name, text in {**laws, **EXTRA_LAWS}.items()}
    dataset = bench.generate_synthetic("poisson", 1000, seed=GRID_BUDGET["seed"])
    count = (dataset, bench.QuerySpec("count"))
    bit = ((dataset > 5.0).astype(float), bench.QuerySpec("moving_average", window=1, scale=1.0))
    for name, mech in mechs.items():
        rng = np.random.default_rng(0)
        binary = isinstance(mech, mechanisms.RandomizedResponse)
        out.append((f"perturb.{name}", "us", 1e6,
                    lambda m=mech, r=rng, v=1 if binary else 3.0: mechanisms.perturb(m, v, r)))
        out.append((f"run_query.{name}", "us", 1e6,
                    lambda m=mech, r=rng, q=bit if binary else count: bench.run_query(*q, m, r)))
        if not binary:
            out.append((f"sample_noise.{name}", "ns/draw", 1e9 / BATCH,
                        lambda m=mech, r=rng: mechanisms.sample_noise(m, r, BATCH)))
    for label, lo, hi in (("normal", -700.0, -1.0), ("subnormal", -744.0, -709.0),
                          ("zero", -2000.0, -746.0)):
        x = np.linspace(lo, hi, GRID_POINTS)
        out.append((f"np_exp.{label}", "ns/point", 1e9 / GRID_POINTS, lambda x=x: np.exp(x)))
    env = {**os.environ, "PYTHONPATH": str(Path(dpcalib.__file__).resolve().parent.parent)}
    for label, code in STARTUP.items():
        out.append((f"startup.{label}", "s", 1.0,
                    lambda cmd=[sys.executable, "-c", code]: subprocess.run(
                        cmd, env=env, check=True, stdout=subprocess.DEVNULL)))
    return out


def time_rows(sides: dict, laws, repeats: int, target_s: float) -> list[dict]:
    """Each row's median time per call on every side, the sides timed in
    turn within each repeat."""
    tables = {side: rows(package, laws) for side, package in sides.items()}
    out = []
    for i, (name, unit, scale, _) in enumerate(tables["after"]):
        fns = {side: table[i][3] for side, table in tables.items()}
        numbers = {}
        for side, fn in fns.items():
            fn()
            once = timeit.timeit(fn, number=1)
            numbers[side] = max(1, math.ceil(target_s / max(once, 1e-9)))
        times = {side: [] for side in fns}
        for k in range(repeats):
            for side in list(fns)[::(-1) ** k]:
                times[side].append(timeit.timeit(fns[side], number=numbers[side]) / numbers[side])
        out.append({"name": name, "unit": unit,
                    **{side: statistics.median(t) * scale for side, t in times.items()}})
    return out


def peak_rows(sides: dict, laws) -> list[dict]:
    """Each compound law's peak traced memory of one verify call, on
    every side; a first call leaves imports and one-time work out."""
    out = []
    for name, text in laws.items():
        row = {"name": f"verify_peak_mib.{name}", "unit": "MiB"}
        for side, package in sides.items():
            combo = package.distributions.parse_combo(text)
            package.privacy.verify_epsilon_empirically(combo, SENSITIVITY)
            tracemalloc.start()
            try:
                package.privacy.verify_epsilon_empirically(combo, SENSITIVITY)
                row[side] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()
        out.append(row)
    return out


def machine() -> dict:
    info = {"platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(), "cpus": os.cpu_count(),
            "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path,
                        help="a src directory holding the dpcalib to compare against")
    parser.add_argument("--quick", action="store_true",
                        help="3 short repeats per row, for a smoke run")
    args = parser.parse_args()
    import numpy as np
    import scipy

    repeats, target_s = QUICK if args.quick else FULL
    sides = {"after": load_dpcalib(ROOT / "src", "dpcalib")}
    if args.before:
        sides = {"before": load_dpcalib(args.before.resolve(), "dpcalib_before"), **sides}
    laws = compound_laws()
    report = {
        "machine": machine(),
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "method": (f"median of {repeats} timeit repeats per row and side, each at least "
                   f"{target_s} s of calls, the sides alternating first within a repeat"),
        "inputs": {"sensitivity": SENSITIVITY, "grid_step": GRID_STEP,
                   "grid_points": GRID_POINTS, "rdp_order": RDP_ORDER,
                   "usefulness_gamma": USEFULNESS_GAMMA, "laws": laws,
                   "linear_goals": LINEAR_GOALS, "grid_cells": GRID_CELLS,
                   "grid_budget": GRID_BUDGET,
                   "plain_mechanisms": PLAIN_MECHANISMS, "extra_laws": EXTRA_LAWS,
                   "batch": BATCH, "startup": STARTUP},
        "rows": time_rows(sides, laws, repeats, target_s) + peak_rows(sides, laws),
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
        os.environ.update(PROCESS_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
