"""What a fresh interpreter imports: the usefulness/l1/l2 path runs on
numpy alone, and the paths that need scipy load it on first use."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy.special

import dpcalib
from dpcalib._lazy import lazy_import
from dpcalib.mechanisms import gaussian_sigma

SRC = Path(dpcalib.__file__).resolve().parent.parent
SCIPY_MODULES = ("scipy.special._ufuncs", "scipy.optimize._optimize")


def _fresh(code: str):
    """Run ``code`` in a new interpreter that imports dpcalib from this
    checkout, and return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_linear_path_loads_no_scipy_module():
    loaded = _fresh(f"""
        import json, sys
        import numpy as np
        import dpcalib
        from dpcalib import bench, distributions, mechanisms, privacy
        from dpcalib.optimize import SearchSpaceSpec

        for metric in ("usefulness", "l1", "l2"):
            grid = bench.ExperimentGrid(epsilons=(5.0,), sensitivities=(1.0,), metric=metric,
                                        metric_params=(0.1,), trials=200, master_seed=3)
            assert not any(row.error for row in bench.run_grid(grid, SearchSpaceSpec()))
        rng = np.random.default_rng(0)
        for text in ("1 degenerate value=2", "1.0 bernoulli p=0.3 x0=2.5 x1=40",
                     "1 gamma shape=2 scale=1", "1 uniform lo=0.1 hi=3"):
            combo = distributions.parse_combo(text)
            privacy.verify_epsilon_empirically(combo, 1.0)
            mechanisms.sample_noise(mechanisms.CompoundLaplace(combo), rng)
            mechanisms.sample_noise(mechanisms.CompoundLaplace(combo), rng, 1000)
        print(json.dumps([name for name in {SCIPY_MODULES!r} if name in sys.modules]))
    """)
    assert loaded == []


# pinned values, and the record the kl search returns from the exact l1/l2 laws
TRUNC_GAUSSIAN = ("3.5257263661613147 trunc_gaussian mu=0.07901397154795174 "
                  "sigma=9.229205844534695 lo=0.0017380827164959 hi=5.057402201497467")
KL_RECORD = """\
target_epsilon = 8.0
achieved_epsilon = 8.0
predicted_utility = 2.5924216156057523e-06
baseline_laplace_utility = 5.559535886969203e-06
staircase_utility = None
evaluations = 43
winning_restart = 1
combo:
  1.0 bernoulli p=0.045559647504936754 x0=3.081506868294912 x1=19.974938552743378
"""


@pytest.mark.parametrize("code, value", [
    (f"privacy.verify_epsilon_empirically(distributions.parse_combo({TRUNC_GAUSSIAN!r}), 1.0)",
     4.999999999987612),
    ("mechanisms.gaussian_sigma(1.0, 1e-5, 1.0)", 4.379070281321586),
    ("optimize(SearchSpaceSpec(2, 20, 400), privacy.PrivacySpec(8.0, 1.0), "
     "utility.UtilityGoal('kl', prior=utility.Histogram.uniform(8, total=400.0)), seed=3).to_text()",
     KL_RECORD),
], ids=["verify_trunc_gaussian", "gaussian_sigma", "optimize_kl"])
def test_scipy_paths_load_it_on_first_use(code, value):
    out = _fresh(f"""
        import json, sys
        from dpcalib import distributions, mechanisms, privacy, utility
        from dpcalib.optimize import SearchSpaceSpec, optimize

        before = [name for name in {SCIPY_MODULES!r} if name in sys.modules]
        print(json.dumps([before, {code}]))
    """)
    assert out == [[], value]


def test_lazy_import_returns_an_imported_module_itself():
    assert lazy_import("scipy.special") is scipy.special
    assert lazy_import("json") is json
    assert gaussian_sigma(1.0, 1e-5, 1.0) == 4.379070281321586
    missing = lazy_import("dpcalib.no_such_module")
    with pytest.raises(ModuleNotFoundError):
        missing.anything


def test_a_lazy_module_loads_once_on_first_use_from_many_threads():
    # the stdlib's LazyLoader fails here on Python 3.11: the threads that
    # read while the first runs the module's code find no ndtri
    out = _fresh("""
        import json, sys, threading, types
        from dpcalib._lazy import lazy_import

        special = lazy_import("scipy.special")
        unloaded = "scipy.special._ufuncs" not in sys.modules
        barrier = threading.Barrier(4)
        values, errors = [], []

        def first_use():
            barrier.wait()
            try:
                values.append(float(special.ndtri(0.975)))
            except Exception as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=first_use) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        import scipy.special
        print(json.dumps([unloaded, errors, values, special.ndtri is scipy.special.ndtri,
                          type(special) is types.ModuleType,
                          lazy_import("scipy.special") is scipy.special]))
    """)
    assert out == [True, [], [float(scipy.special.ndtri(0.975))] * 4, True, True, True]
