"""Per-layer tracing of dpcalib from outside the package.

`Tracer.install` replaces the public functions and methods of each
dpcalib module with timing wrappers, in every module namespace that
imported them by name, and `uninstall` puts the originals back.  Spans
are aggregated in memory per key: call count, inclusive time, self time
(inclusive time minus the time of traced calls made inside the span),
an item count (points, draws) and the exceptions raised.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

import dpcalib

# the package re-exports `optimize` the function under the submodule's name
bench, distributions, mechanisms, optimize, privacy, utility = (
    importlib.import_module(f"dpcalib.{name}")
    for name in ("bench", "distributions", "mechanisms", "optimize", "privacy", "utility")
)

# families whose per-call scalar MGF cost is reported; these are the
# optimizer's slots, the Laplace seed and the two-atom law
REPORTED_FAMILIES = ("degenerate", "bernoulli", "gamma", "uniform", "trunc_gaussian")
MECHANISM_KINDS = {
    "Laplace": "laplace",
    "Staircase": "staircase",
    "Gaussian": "gaussian",
    "RandomizedResponse": "randomized_response",
    "CompoundLaplace": "compound",
}
NOISE_KINDS = ("laplace", "staircase", "gaussian", "compound")


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0
    raised: Counter = field(default_factory=Counter)


def _size(x) -> int:
    return 1 if x is None else int(np.prod(x))


def _named(name):
    return lambda args, kwargs: (name, 0)


def _mgf_key(kind):
    def key(args, kwargs):
        t = args[1] if len(args) > 1 else kwargs["t"]
        if np.ndim(t) == 0:
            return (kind, "scalar"), 1
        return (kind, "vector"), np.size(t)
    return key


def _family_key(kind):
    def key(args, kwargs):
        t = args[1] if len(args) > 1 else kwargs["t"]
        shape = "scalar" if np.ndim(t) == 0 else "vector"
        return (kind, shape, args[0].family), 1
    return key


def _combo_sample_key(args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return "distributions.sample", _size(size)


def _noise_key(args, kwargs):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    kind = MECHANISM_KINDS[type(args[0]).__name__]
    return ("mechanisms.sample_noise", kind), _size(size)


def _perturb_key(args, kwargs):
    return ("mechanisms.perturb", MECHANISM_KINDS[type(args[0]).__name__]), 1


def _grid_points_key(args, kwargs):
    # density_grid_epsilon(log_density, shift, radius, step) evaluates the
    # log-density on arange(-radius, shift + radius + step, step), twice
    _, shift, radius, step = args[:4]
    points = int(math.ceil((2.0 * radius + shift + step) / step))
    return "privacy.verify.grid", 2 * points


class Tracer:
    """Timing wrappers around dpcalib's layer boundaries."""

    def __init__(self):
        self.spans: dict = defaultdict(Span)
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._modules = (dpcalib, bench, distributions, mechanisms, optimize,
                         privacy, utility)

    # --- installation -------------------------------------------------

    def _wrap(self, fn, key, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, items = key(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[name].raised[type(exc).__name__] += 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span = spans[name]
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - child
                span.items += items
            if post is not None:
                post(result, args, kwargs)
            return result

        return traced

    def _function(self, module, name, key=None, post=None):
        original = getattr(module, name)
        wrapper = self._wrap(original, key or _named(f"{module.__name__.split('.')[-1]}.{name}"),
                             post)
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _method(self, cls, name, key):
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self._wrap(original, key))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._function(bench, "run_grid")
        self._function(bench, "run_query")
        self._function(optimize, "optimize", post=self._after_optimize)
        self._function(optimize, "calibrate_scale")
        for name in ("epsilon_of_combo", "epsilon_closed_form",
                     "passes_necessary_condition", "verify_epsilon_empirically"):
            self._function(privacy, name)
        self._function(privacy, "density_grid_epsilon", key=_grid_points_key)
        for name in ("usefulness_bound", "l1_bound", "l2_bound"):
            self._function(utility, name)
        self._function(mechanisms, "sample_noise", key=_noise_key, post=self._after_noise)
        self._function(mechanisms, "perturb", key=_perturb_key)
        combo = distributions.LinearCombo
        self._method(combo, "mgf", _mgf_key("distributions.mgf"))
        self._method(combo, "mgf_deriv", _mgf_key("distributions.mgf_deriv"))
        self._method(combo, "sample", _combo_sample_key)
        for cls in distributions.FAMILIES.values():
            for name in ("mgf", "mgf_deriv"):
                if name in cls.__dict__:
                    self._method(cls, name, _family_key(f"distributions.{name}"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- counters fed from results --------------------------------------

    def _after_optimize(self, result, args, kwargs):
        goal = args[2] if len(args) > 2 else kwargs["goal"]
        self.counts["optimize.evaluations"] += result.diagnostics.evaluations
        self.counts["optimize.cells"] += 1
        point_masses = all(isinstance(d, distributions.Degenerate)
                           for _, d in result.combo.active_terms())
        gain = result.predicted_utility - result.baseline_laplace_utility
        if not goal.higher_is_better:
            gain = -gain
        if not point_masses and gain > 1e-9:
            self.counts["optimize.beats_laplace"] += 1

    def _after_noise(self, result, args, kwargs):
        draws = np.asarray(result, float)
        self.counts["mechanisms.bad_draws"] += int(draws.size - np.count_nonzero(
            np.isfinite(draws) & (draws != 0.0)))

    # --- report ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; 0 where a layer is idle."""
        s = self.spans

        def total(name, attr):
            span = s.get(name)
            return getattr(span, attr) if span else 0

        def per_call(name, scale):
            span = s.get(name)
            return span.total_s / span.calls * scale if span and span.calls else 0.0

        def per_item(name, scale):
            span = s.get(name)
            return span.total_s / span.items * scale if span and span.items else 0.0

        out: dict[str, tuple[float, str]] = {}
        out["bench.run_grid.self_s"] = (total("bench.run_grid", "self_s"), "s")
        out["bench.run_query.us"] = (per_call("bench.run_query", 1e6), "us")
        cells = self.counts["optimize.cells"]
        out["optimize.calls"] = (total("optimize.optimize", "calls"), "count")
        out["optimize.self_s"] = (total("optimize.optimize", "self_s"), "s")
        out["optimize.evaluations"] = (self.counts["optimize.evaluations"], "count")
        out["optimize.calibrate_scale.calls"] = (total("optimize.calibrate_scale", "calls"),
                                                 "count")
        out["optimize.calibrate_scale.busy_s"] = (total("optimize.calibrate_scale", "total_s"),
                                                  "s")
        out["optimize.beats_laplace_share"] = (
            self.counts["optimize.beats_laplace"] / cells if cells else 0.0, "ratio")
        for name in ("epsilon_of_combo", "passes_necessary_condition"):
            out[f"privacy.{name}.calls"] = (total(f"privacy.{name}", "calls"), "count")
            out[f"privacy.{name}.us"] = (per_call(f"privacy.{name}", 1e6), "us")
        out["privacy.verify_epsilon_empirically.ms"] = (
            per_call("privacy.verify_epsilon_empirically", 1e3), "ms")
        out["privacy.verify.grid_points"] = (total("privacy.verify.grid", "items"), "count")
        for name in ("usefulness_bound", "l1_bound", "l2_bound"):
            out[f"utility.{name}.us"] = (per_call(f"utility.{name}", 1e6), "us")
        bounds = [f"utility.{n}" for n in ("usefulness_bound", "l1_bound", "l2_bound")]
        bound_calls = sum(total(n, "calls") for n in bounds)
        divergent = sum(s[n].raised["DivergentIntegralError"] for n in bounds if n in s)
        out["utility.divergent_share"] = (divergent / bound_calls if bound_calls else 0.0,
                                          "ratio")
        for kind in ("mgf", "mgf_deriv"):
            prefix = f"distributions.{kind}"
            out[f"{prefix}.scalar_calls"] = (total((prefix, "scalar"), "calls"), "count")
            for fam in REPORTED_FAMILIES:
                out[f"{prefix}.scalar_us.{fam}"] = (per_call((prefix, "scalar", fam), 1e6), "us")
            vector = (prefix, "vector")
            out[f"{prefix}.vector_points"] = (total(vector, "items"), "count")
            out[f"{prefix}.ns_per_point"] = (per_item(vector, 1e9), "ns")
        out["distributions.sample.draws"] = (total("distributions.sample", "items"), "count")
        out["distributions.sample.ns_per_draw"] = (per_item("distributions.sample", 1e9), "ns")
        for kind in NOISE_KINDS:
            out[f"mechanisms.sample_noise.ns_per_draw.{kind}"] = (
                per_item(("mechanisms.sample_noise", kind), 1e9), "ns")
        for kind in MECHANISM_KINDS.values():
            out[f"mechanisms.perturb.us.{kind}"] = (
                per_call(("mechanisms.perturb", kind), 1e6), "us")
        out["mechanisms.bad_draws"] = (self.counts["mechanisms.bad_draws"], "count")
        return out
