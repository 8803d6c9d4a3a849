"""Closed-form MGF algebra for non-negative noise-scale distributions.

Every distribution here models the *reciprocal* of a Laplace scale
parameter, so supports are restricted to [0, inf).  Each family exposes
its moment generating function M(t) = E[e^{tX}], the first derivative
M'(t) = E[X e^{tX}], the mean, and a sampler driven by a caller-owned
``numpy.random.Generator``.  All values are immutable after construction
and every operation is pure.

``mgf``, ``mgf_deriv`` and ``mgf_and_deriv`` take a scalar or an array t
of any shape under one decorator, ``_array_math``: the body gets
``np.asarray(t, float)`` and is array math only, an array gets values of
its shape back, and a scalar t a float (a tuple of floats for the pair).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from functools import wraps

import numpy as np
from scipy import special


class DomainError(ValueError):
    """The MGF (or its derivative) was probed outside its existence domain."""


def _array_math(method):
    """Call ``method`` with ``np.asarray(t, float)``; a scalar t gets a
    float back, or a tuple of floats from ``mgf_and_deriv``.  Each family
    keeps its decorated methods in its own class, where perfbench's tracer
    wraps them."""
    @wraps(method)
    def call(self, t):
        out = method(self, np.asarray(t, float))
        if np.isscalar(t):
            return tuple(map(float, out)) if isinstance(out, tuple) else float(out)
        return out
    return call


def _diff_log(log_hi, log_lo):
    """log(e^log_hi - e^log_lo); nan ratios (-inf minus -inf) mean zero mass."""
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.minimum(log_lo - log_hi, 0.0)
        ratio = np.where(np.isnan(ratio), -np.inf, ratio)
        return log_hi + np.log1p(-np.exp(ratio))


def _log_gauss_mass(lo, hi):
    """log(Phi(hi) - Phi(lo)) computed stably for extreme arguments.  The
    mass of [lo, hi] is that of [-hi, -lo], so each window is mirrored to
    lo + hi >= 0, where both upper tails 1 - Phi keep their digits."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    flip = lo < -hi
    lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    return _diff_log(special.log_ndtr(-lo), special.log_ndtr(-hi))


def _norm_logpdf(x):
    return -0.5 * np.asarray(x, dtype=float) ** 2 - 0.5 * math.log(2 * math.pi)


def _expm1_over(x):
    """expm1(x)/x with the removable singularity at zero."""
    x = np.asarray(x, float)
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.expm1(safe) / safe)


def _expm1_over_deriv(x):
    """d/dx [expm1(x)/x]; series near zero avoids cancellation."""
    x = np.asarray(x, float)
    small = np.abs(x) < 1e-3
    safe = np.where(small, 1.0, x)
    with np.errstate(invalid="ignore"):
        exact = (safe * np.exp(safe) - np.expm1(safe)) / (safe * safe)
    series = 0.5 + x / 3.0 + x * x / 8.0 + x * x * x / 30.0
    return np.where(small, series, exact)


@dataclass(frozen=True)
class MgfDist(ABC):
    """A second-fold distribution with non-negative support and a known MGF."""

    @abstractmethod
    def mgf(self, t):
        """E[e^{tX}]; exactly 1 at t = 0."""

    @abstractmethod
    def mgf_deriv(self, t):
        """E[X e^{tX}]; equals the mean at t = 0."""

    def mgf_and_deriv(self, t):
        """(M(t), M'(t)), bit-identical to ``(mgf(t), mgf_deriv(t))``;
        families whose two values share work override it."""
        return self.mgf(t), self.mgf_deriv(t)

    @abstractmethod
    def mean(self) -> float:
        """E[X] in closed form."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw from the distribution using the supplied generator; a batch
        comes back in a new array that the caller may overwrite."""

    def log_mgf(self, t: float) -> float:
        """ln M(t) for a scalar t; families with a closed form override it
        so that large t does not overflow."""
        return math.log(self.mgf(t))

    def mgf_domain_sup(self) -> float:
        """Exclusive upper bound of t for which the MGF exists."""
        return math.inf

    def tail_power(self) -> float:
        """Asymptotic decay exponent of M(-x): M(-x) ~ x^{-p} as x -> inf.

        ``inf`` means exponential decay, and for every family here it is
        returned exactly when the support is bounded away from zero.  A
        combination's power is the sum over its terms, so one such term
        makes it ``inf``.  Used to decide convergence of improper
        integrals of the MGF, and to close their right-hand tail exactly:
        beyond the grid, int x^w M(-x) dx is taken as that of C x^-p.
        """
        return math.inf

    def active_terms(self) -> tuple[tuple[float, MgfDist], ...]:
        """The law as a one-term combination, as ``LinearCombo`` reports it."""
        return ((1.0, self),)

    def _check_domain(self, t: np.ndarray):
        sup = self.mgf_domain_sup()
        if np.any(t >= sup):
            raise DomainError(f"{type(self).__name__}: MGF does not exist at t >= {sup}")

    @property
    def family(self) -> str:
        return _FAMILY_NAMES[type(self)]

    def params(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Degenerate(MgfDist):
    """Point mass at ``value`` > 0; reduces the mechanism to plain Laplace."""

    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError(f"degenerate value must be finite and > 0, got {self.value}")

    @_array_math
    def mgf(self, t):
        return np.exp(t * self.value)

    @_array_math
    def mgf_deriv(self, t):
        return self.value * np.exp(t * self.value)

    def log_mgf(self, t: float) -> float:
        return t * self.value

    def mean(self) -> float:
        return self.value

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


@dataclass(frozen=True)
class Bernoulli(MgfDist):
    """Two-point distribution: ``x0`` with probability p, ``x1`` otherwise."""

    p: float
    x0: float
    x1: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not (self.x0 > 0 and self.x1 > 0):
            raise ValueError("both outcomes must be > 0")

    @_array_math
    def mgf(self, t):
        return self.p * np.exp(t * self.x0) + (1 - self.p) * np.exp(t * self.x1)

    @_array_math
    def mgf_deriv(self, t):
        return self.p * self.x0 * np.exp(t * self.x0) + (1 - self.p) * self.x1 * np.exp(t * self.x1)

    def log_mgf(self, t: float) -> float:
        atoms = [math.log(w) + t * x
                 for w, x in ((self.p, self.x0), (1 - self.p, self.x1)) if w > 0]
        return float(np.logaddexp.reduce(atoms))

    def mean(self) -> float:
        return self.p * self.x0 + (1 - self.p) * self.x1

    def sample(self, rng, size=None):
        u = rng.random(size)
        if size is None:
            return self.x0 if u < self.p else self.x1
        # np.where on a random mask costs several times this gather
        return np.take([self.x1, self.x0], (u < self.p).view(np.int8))


# rng.gamma returns exact zeros for a visible share of draws below this shape
# (47.5% at shape 1e-3), and a zero scale cannot be released
_MIN_GAMMA_SHAPE = 0.05


@dataclass(frozen=True)
class Gamma(MgfDist):
    """Gamma(shape k, scale theta); MGF (1 - theta*t)^(-k) for t < 1/theta."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("shape and scale must be > 0")
        if self.shape < _MIN_GAMMA_SHAPE:
            raise ValueError(
                f"gamma shape must be >= {_MIN_GAMMA_SHAPE}, got {self.shape}: below it "
                "draws underflow to exact zeros, so the sampled law is not the analysed one"
            )

    def mgf_domain_sup(self) -> float:
        return 1.0 / self.scale

    @_array_math
    def mgf(self, t):
        self._check_domain(t)
        return (1.0 - self.scale * t) ** (-self.shape)

    @_array_math
    def mgf_deriv(self, t):
        self._check_domain(t)
        return self.shape * self.scale * (1.0 - self.scale * t) ** (-self.shape - 1.0)

    def mean(self) -> float:
        return self.shape * self.scale

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size)

    def tail_power(self) -> float:
        return self.shape


@dataclass(frozen=True)
class Uniform(MgfDist):
    """Continuous uniform on [lo, hi] with 0 <= lo < hi.

    The MGF (e^{t hi} - e^{t lo}) / (t (hi - lo)) is evaluated in the
    cancellation-free form e^{t lo} * expm1(t w)/(t w), w = hi - lo,
    which also handles the removable singularity at t = 0.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi < math.inf):
            raise ValueError(f"need 0 <= lo < hi < inf, got [{self.lo}, {self.hi}]")

    @_array_math
    def mgf(self, t):
        return np.exp(t * self.lo) * _expm1_over(t * (self.hi - self.lo))

    @_array_math
    def mgf_deriv(self, t):
        return self.mgf_and_deriv(t)[1]

    @_array_math
    def mgf_and_deriv(self, t):
        w = self.hi - self.lo
        shift = np.exp(t * self.lo)
        ratio = _expm1_over(t * w)
        return shift * ratio, shift * (self.lo * ratio + w * _expm1_over_deriv(t * w))

    def log_mgf(self, t: float) -> float:
        # factor out the larger exponential so that nothing overflows
        tw = t * (self.hi - self.lo)
        if tw <= 0.0:
            return t * self.lo + math.log(float(_expm1_over(tw)))
        return t * self.hi + math.log(-math.expm1(-tw) / tw)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng, size=None):
        # numpy's uniform, lo + (hi - lo) u, without its scalar call's overhead
        u = rng.random(size)
        u *= self.hi - self.lo
        u += self.lo
        return u

    def tail_power(self) -> float:
        return math.inf if self.lo > 0 else 1.0


@dataclass(frozen=True)
class TruncGaussian(MgfDist):
    """Gaussian(mu, sigma) truncated to [lo, hi]; hi may be math.inf."""

    mu: float
    sigma: float
    lo: float
    hi: float = math.inf

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")
        alpha = (self.lo - self.mu) / self.sigma
        beta = math.inf if math.isinf(self.hi) else (self.hi - self.mu) / self.sigma
        if alpha < 0.0 < beta:
            cdf, tail = (float(special.ndtr(alpha)), float(special.ndtr(beta))), None
        else:
            # Invert the tail holding [alpha, beta] in log space, as
            # _log_gauss_mass does: ndtr rounds to 1 beyond about 8.3, where
            # inverting between the two CDF values would return inf.  The
            # sign s mirrors the lower tail (beta <= 0) onto the upper one.
            s = 1.0 if alpha >= 0.0 else -1.0
            near, far = (alpha, beta) if s > 0 else (beta, alpha)
            log_near = special.log_ndtr(-s * near)
            cdf, tail = None, (s, log_near,
                               -np.expm1(special.log_ndtr(-s * far) - log_near))
        # per-law constants, computed once: the standardized bounds, the log
        # normaliser and what the sampler inverts between
        for name, value in (("_alpha", alpha), ("_beta", beta),
                            ("_log_den", float(_log_gauss_mass(alpha, beta))),
                            ("_cdf", cdf), ("_tail", tail)):
            object.__setattr__(self, name, value)

    # beyond these values of alpha - sigma*t the direct expressions cancel
    # catastrophically and asymptotics toward the lower truncation point
    # take over (the tilted mean loses precision much earlier than log M)
    _DEEP = 1e5
    _DEEP_MEAN = 1e3

    def _tilted(self, t: np.ndarray):
        # standardized bounds of the law tilted by e^{tx}, and the log of
        # the normal mass between them
        lo_t = self._alpha - self.sigma * t
        hi_t = self._beta - self.sigma * t
        with np.errstate(all="ignore"):
            return lo_t, hi_t, _log_gauss_mass(lo_t, hi_t)

    def _log_mgf(self, t: np.ndarray, lo_t: np.ndarray, log_mass: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            out = self.mu * t + 0.5 * (self.sigma * t) ** 2 + log_mass - self._log_den
            deep = lo_t > self._DEEP
            if np.any(deep):
                out = np.where(deep, t * self.lo - 0.5 * self._alpha * self._alpha
                               - np.log(np.maximum(lo_t, 1.0))
                               - 0.5 * math.log(2 * math.pi) - self._log_den, out)
        return out

    @_array_math
    def mgf(self, t):
        lo_t, _, log_mass = self._tilted(t)
        return np.exp(self._log_mgf(t, lo_t, log_mass))

    def log_mgf(self, t: float) -> float:
        t = np.asarray(t, float)
        lo_t, _, log_mass = self._tilted(t)
        return float(self._log_mgf(t, lo_t, log_mass))

    @_array_math
    def mgf_deriv(self, t):
        return self.mgf_and_deriv(t)[1]

    @_array_math
    def mgf_and_deriv(self, t):
        lo_t, hi_t, log_mass = self._tilted(t)
        with np.errstate(all="ignore"):
            # hazard-style ratios stay bounded where the raw pdf/mass underflow
            r_lo = np.exp(_norm_logpdf(lo_t) - log_mass)
            r_hi = 0.0 if math.isinf(self._beta) else np.exp(_norm_logpdf(hi_t) - log_mass)
            tilted_mean = self.mu + self.sigma ** 2 * t + self.sigma * (r_lo - r_hi)
            deep = lo_t > self._DEEP_MEAN
            if np.any(deep):
                tilted_mean = np.where(deep, self.lo + self.sigma / np.maximum(lo_t, 1.0),
                                       tilted_mean)
        m = np.exp(self._log_mgf(t, lo_t, log_mass))
        return m, m * tilted_mean

    def mean(self) -> float:
        return float(self.mgf_deriv(0.0))

    def sample(self, rng, size=None):
        if self._tail is None:
            lo, hi = self._cdf  # the same bits as rng.uniform(lo, hi, size)
            z = special.ndtri(lo + (hi - lo) * rng.random(size))
        else:
            s, log_near, frac = self._tail
            z = -s * special.ndtri_exp(log_near + np.log1p(-frac * rng.random(size)))
        x = self.mu + self.sigma * z
        hi = self.hi if not math.isinf(self.hi) else np.inf
        return np.clip(x, self.lo, hi) if size is not None else float(
            min(max(x, self.lo), hi)
        )

    def tail_power(self) -> float:
        return math.inf if self.lo > 0 else 1.0


_FAMILY_NAMES: dict[type, str] = {
    Degenerate: "degenerate",
    Bernoulli: "bernoulli",
    Gamma: "gamma",
    Uniform: "uniform",
    TruncGaussian: "trunc_gaussian",
}

FAMILIES: dict[str, type] = {name: cls for cls, name in _FAMILY_NAMES.items()}


@dataclass(frozen=True)
class LinearCombo:
    """Non-negative linear combination sum_i a_i * X_i of independent terms.

    Represents the reciprocal Laplace scale 1/b.  The combined MGF is the
    product of the member MGFs at the scaled arguments, and the derivative
    follows the product rule.  Terms with a zero coefficient are dropped
    once validated, so ``terms`` is the law.
    """

    terms: tuple[tuple[float, MgfDist], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a linear combination needs at least one term")
        coeffs = [a for a, _ in self.terms]
        if any(a < 0 or not math.isfinite(a) for a in coeffs):
            raise ValueError("coefficients must be finite and >= 0")
        if not any(a > 0 for a in coeffs):
            raise ValueError("at least one coefficient must be > 0")
        object.__setattr__(self, "terms",
                           tuple((float(a), d) for a, d in self.terms if a > 0))

    def active_terms(self) -> tuple[tuple[float, MgfDist], ...]:
        return self.terms

    @_array_math
    def mgf(self, t):
        out = np.ones_like(t)
        for a, d in self.terms:
            out = out * d.mgf(a * t)
        return out

    @_array_math
    def mgf_deriv(self, t):
        if len(self.terms) == 1:  # no other term's M enters the product
            (a, d), = self.terms
            return a * d.mgf_deriv(a * t)
        # product rule over one (M, M') pair per term
        pairs = [d.mgf_and_deriv(a * t) for a, d in self.terms]
        out = np.zeros_like(t)
        for j, (a, _) in enumerate(self.terms):
            part = a * pairs[j][1]
            for i, (v, _) in enumerate(pairs):
                if i != j:
                    part = part * v
            out = out + part
        return out

    mgf_and_deriv = MgfDist.mgf_and_deriv

    def log_mgf(self, t: float) -> float:
        return sum(d.log_mgf(a * t) for a, d in self.terms)

    def mean(self) -> float:
        return sum(a * d.mean() for a, d in self.terms)

    def sample(self, rng, size=None):
        if size is None:
            total = 0.0
            for a, d in self.terms:
                total += a * d.sample(rng)
            return total
        (a, d), *rest = self.terms
        out = a * np.asarray(d.sample(rng, size), float)
        for a, d in rest:
            out += a * np.asarray(d.sample(rng, size))
        return out

    def mgf_domain_sup(self) -> float:
        return min(d.mgf_domain_sup() / a for a, d in self.terms)

    def tail_power(self) -> float:
        return sum(d.tail_power() for _, d in self.terms)


def singleton(dist: MgfDist, coeff: float = 1.0) -> LinearCombo:
    """Wrap one distribution as a single-term combination."""
    return LinearCombo(((coeff, dist),))


# --- plain-text serialization -------------------------------------------
#
# One term per line:  "<coeff> <family> key=value key=value ..."
# A bare distribution serializes as a combo with coefficient 1.
# "inf" is accepted for unbounded parameters (TruncGaussian hi).


def format_dist(dist: MgfDist) -> str:
    parts = [dist.family]
    parts += [f"{k}={v!r}" for k, v in dist.params().items()]
    return " ".join(parts)


def parse_spec(text: str, kinds: dict[str, type], noun: str):
    """``kinds[name](**params)`` from "name key=value ...", for the frozen
    dataclasses in ``kinds``.  ``ValueError``, saying ``noun``, on an empty
    spec, an unknown name, or a missing or unknown parameter."""
    tokens = text.split()
    if not tokens:
        raise ValueError(f"empty {noun} spec")
    name = tokens[0].lower()
    if name not in kinds:
        raise ValueError(f"unknown {noun} {name!r}; known: {sorted(kinds)}")
    kwargs = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"malformed parameter {tok!r} (expected key=value)")
        key, val = tok.split("=", 1)
        kwargs[key] = float(val)
    try:
        return kinds[name](**kwargs)
    except TypeError:
        names = ", ".join(f.name for f in fields(kinds[name]))
        raise ValueError(f"{noun} {name!r} takes {names}; got {', '.join(kwargs) or 'none'}"
                         ) from None


def parse_dist(text: str) -> MgfDist:
    return parse_spec(text, FAMILIES, "family")


def format_combo(combo: LinearCombo) -> str:
    return "\n".join(f"{a!r} {format_dist(d)}" for a, d in combo.terms)


def parse_combo(text: str) -> LinearCombo:
    terms = []
    for raw in text.replace(";", "\n").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        coeff_tok, _, rest = line.partition(" ")
        terms.append((float(coeff_tok), parse_dist(rest)))
    return LinearCombo(tuple(terms))
