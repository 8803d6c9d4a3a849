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

Their log-space pair takes t the same way.  ``log_mgf_deriv`` is
ln M'(t), formed in log space by each family: it stays finite where M'
underflows, and costs no exp -> log round trip.  ``log_mgf_and_mean``
is (ln M(t), M'(t)/M(t)), the tilted law's log-mass and mean, from
which a combination of several terms sums its ln M'.  The noise density
M'(-|x|)/2 is read in log space through ``log_mgf_deriv`` alone.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from functools import wraps

import numpy as np

from ._lazy import lazy_import

special = lazy_import("scipy.special")  # TruncGaussian only


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


# numpy's exp leaves its fast path below an argument of about -707.5,
# where results near or under the smallest normal double begin: on an
# AVX-512 x86-64 host with numpy 2.4 such a point costs 15 to 100 times a
# normal one (30-40 ms against 0.2-0.3 ms on 245,001 points).  Where a
# term is added to one many orders larger, its exponent is held at this
# floor (e^-700 = 9.9e-305) instead; each such site says why the held
# value is below half an ulp of what it is added to, so that the sum
# rounds to the same bits as with the true one.
_EXP_FLOOR = -700.0

_RSQRT2 = 1.0 / math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# r(x) - x, r the standard normal hazard phi/(1 - Phi), comes from the
# continued fraction 1/(x + 2/(x + 3/(x + ...))) beyond x = _CF_FROM, where
# _CF_LEVELS levels of it are exact to 1e-16 and r - x already loses
# x^2 ulp to cancellation
_CF_FROM = 12.0
_CF_LEVELS = 10

# the relative error, about half the digits of a double, past which
# TruncGaussian._tilt refuses a point: g must keep this share of
# erfcx(l/√2), and the mean's rounding error stay under it
_KEPT = 2.0 ** -26

# TruncGaussian._tilt drops the far end's terms where q = phi(h)/phi(l) is
# held at the floor and the near end l is below this: past it, the held
# q's term in the deep mean, about e^-700 √(2/π), is no longer under half
# an ulp of the near end's, about √(2/π)/l^2 (they meet near l = 3.6e143)
_HELD_REACH = 1e140


def _hazard_excess(x):
    """r(x) - x for x >= _CF_FROM, from Laplace's continued fraction."""
    acc = (_CF_LEVELS + 1) / x
    for k in range(_CF_LEVELS, 1, -1):
        acc += x
        acc = k / acc
    acc += x
    return 1.0 / acc


def _patch(mask, fn, args, out):
    """``out`` with fn(*args) where ``mask`` holds, fn being evaluated on
    those points only: args of mask's shape are cut down to them, scalars
    pass as they are.  An array ``out`` is overwritten; for one point the
    result replaces it.

    Where a 1-D mask holds on one contiguous run, as each regime of a
    kernel does on a monotone t, the run is read and written through
    slice views, with no boolean gather or scatter; fn may therefore be
    handed views, and must not write to its args.  Any other mask is
    gathered and scattered."""
    if mask.ndim == 0:
        return fn(*args) if mask else out
    if mask.ndim == 1 and mask.size:
        start = mask.argmax()  # the first True, if any
        if not mask[start]:
            return out
        stop = start + mask[start:].argmin()  # the first False after it,
        if stop == start:  # or, where there is none, the end
            stop = mask.size
        if np.count_nonzero(mask) == stop - start:
            mask = slice(start, stop)
    elif not mask.any():
        return out
    out[mask] = fn(*(a[mask] if np.ndim(a) else a for a in args))
    return out


def _straddle_log_mass(l, h):
    return np.log(0.5 * (special.erf(h * _RSQRT2) + special.erf(-l * _RSQRT2)))


def _deep_excess(l, e_l, g, q=None, e_h=None):
    """The tilted mean's distance from the near end of a tail window at
    l > _CF_FROM, r(1 - q) - l with r = √(2/π)/g, where the cancelling
    r - l is taken from the continued fraction (r e_l = √(2/π) at q = 0).
    Without q and e_h = erfcx(h/√2) the far end's term is left out."""
    out = _hazard_excess(l) * e_l
    if q is not None:
        out -= q * (_SQRT_2_OVER_PI - l * e_h)
    out /= g
    return out


def _plus_half_square(log_k, l):
    return log_k + 0.5 * l ** 2


def _held_exp(ln_q):
    return np.exp(np.maximum(ln_q, _EXP_FLOOR))


def _erfcx_std(x):
    """erfcx(x/√2): e^{x^2/2} times twice the standard normal tail past x."""
    return special.erfcx(x * _RSQRT2)


def _straddle_hazard(core):
    return _INV_SQRT_2PI * np.exp(np.maximum(-core, _EXP_FLOOR))


def _expm1_over(s, em1):
    """expm1(s)/s from em1 = expm1(s), and 1 at s = 0; s is an array or a
    numpy scalar."""
    with np.errstate(invalid="ignore"):
        return _patch(s == 0.0, lambda: 1.0, (), em1 / s)


def _expm1_over_deriv(s, em1):
    """d/ds [expm1(s)/s] = (s e^s - expm1(s))/s^2 from em1 = expm1(s).  A
    series below |s| = 2e-2 avoids the direct form's 1/s-fold cancellation;
    its first dropped term, s^6/5760, is under 2.3e-14 of it there."""
    # s is held at the floor (see _EXP_FLOOR): below it em1 is exactly -1,
    # and |s e^s| < 1e-301 is far below half an ulp of 1, so no bit moves
    with np.errstate(invalid="ignore"):
        exact = (s * np.exp(np.maximum(s, _EXP_FLOOR)) - em1) / (s * s)
    return _patch(np.abs(s) < 2e-2, _expm1_over_series, (s,), exact)


def _expm1_over_series(s):
    # the sum of n s^(n-1)/(n+1)! for n = 1..6
    return 0.5 + s * (1 / 3 + s * (1 / 8 + s * (1 / 30 + s * (1 / 144 + s / 840))))


def _scaled(t, c):
    """c t in a fresh array of t's shape, 0-d for a 0-d t, that the
    caller may overwrite: the log-space kernels work in place, which on
    the density grid's arrays is faster than allocating each pass."""
    return np.multiply(t, c, out=np.empty_like(t))


def _log_or_ninf(w):
    return math.log(w) if w > 0.0 else -math.inf


def _log_sum_about(t, base, other, moment):
    """ln(w_b x_b^k e^{t x_b} + w_o x_o^k e^{t x_o}), k = ``moment``, for
    the atoms base = (x_b, w_b) and other = (x_o, w_o), w_b > 0, as
    t x_b + ln(w_b x_b^k + w_o x_o^k e^{t (x_o - x_b)}).  Where
    t (x_o - x_b) <= 0 the factor is at most 1: the two positive terms
    are summed in linear space, and only that sum's rounding, ln's and
    t x_b's enter.  The exponent is taken as t x_o - t x_b, which, unlike
    t (x_o - x_b), carries no rounding of x_o - x_b: scaled by t, that
    rounding would add about as much again to the factor's error."""
    (xb, wb), (xo, wo) = base, other
    shift = _scaled(t, xb)
    out = _scaled(t, xo)
    out -= shift
    with np.errstate(over="ignore"):  # where the factor passes 1, the caller replaces the point
        np.exp(out, out=out)
    out *= wo * xo ** moment
    out += wb * xb ** moment
    np.log(out, out=out)
    out += shift
    return out


def _uniform_log_deriv(t, end, width):
    """ln M'(t) of the uniform law on [end, end + width] (width < 0: on
    [end + width, end]), for t width <= 0: t end + ln(end R + width R'),
    R = expm1(s)/s at s = t width and R' its derivative."""
    s = t * width
    em1 = np.expm1(s)
    return t * end + np.log(end * _expm1_over(s, em1) + width * _expm1_over_deriv(s, em1))


def _uniform_log_tilt(t, end, width):
    """(ln M(t), M'(t)/M(t)) of the same law: (t end + ln R, end + width R'/R)."""
    s = t * width
    em1 = np.expm1(s)
    ratio = _expm1_over(s, em1)
    return t * end + np.log(ratio), end + width * (_expm1_over_deriv(s, em1) / ratio)


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
    def log_mgf_and_mean(self, t):
        """(ln M(t), M'(t)/M(t)), the log-space twin of ``mgf_and_deriv``:
        ln M, and the mean of the law tilted by e^{tx}, formed without M,
        so that neither underflows where M does."""

    @_array_math
    def log_mgf_deriv(self, t):
        """ln M'(t) = ln M(t) + ln(M'(t)/M(t)); families with a direct form
        override it.  A point that ``log_mgf_and_mean`` refuses reads nan."""
        log_m, mean = self.log_mgf_and_mean(t)
        with np.errstate(divide="ignore"):
            return log_m + np.log(mean)

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

    @_array_math
    def log_mgf_and_mean(self, t):
        return t * self.value, np.full_like(t, self.value)

    @_array_math
    def log_mgf_deriv(self, t):
        out = _scaled(t, self.value)
        out += math.log(self.value)
        return out

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
        if not (0 < self.x0 < math.inf and 0 < self.x1 < math.inf):
            raise ValueError("both outcomes must be finite and > 0")

    @_array_math
    def mgf(self, t):
        return self.p * np.exp(t * self.x0) + (1 - self.p) * np.exp(t * self.x1)

    @_array_math
    def mgf_deriv(self, t):
        return self.p * self.x0 * np.exp(t * self.x0) + (1 - self.p) * self.x1 * np.exp(t * self.x1)

    def _log_sum(self, t, moment):
        """ln E[X^k e^{tX}], k = ``moment``, about the atom whose e^{tx}
        is the larger: the lower where t <= 0, the upper where t > 0.  A
        law with a weight of 0 is its other atom's point mass."""
        if self.p in (0.0, 1.0):
            x = self.x0 if self.p == 1.0 else self.x1
            out = _scaled(t, x)
            out += moment * math.log(x)
            return out
        lower, upper = sorted(((self.x0, self.p), (self.x1, 1.0 - self.p)))
        out = _log_sum_about(t, lower, upper, moment)
        if np.max(t) > 0.0:
            out = np.where(t > 0.0, _log_sum_about(np.maximum(t, 0.0), upper, lower, moment), out)
        return out

    @_array_math
    def log_mgf_and_mean(self, t):
        # the mean is x0 + (x1 - x0) s, s = 1/(1 + e^-z) the second atom's
        # share of the tilted mass and z its log-ratio to the first's
        # term, formed directly so that its error stays under an ulp of z
        z = _scaled(t, self.x1 - self.x0)
        z += _log_or_ninf(1.0 - self.p) - _log_or_ninf(self.p)
        np.negative(z, out=z)
        with np.errstate(over="ignore"):  # e^-z = inf gives the share 0
            np.exp(z, out=z)
        z += 1.0
        return self._log_sum(t, 0), self.x0 + (self.x1 - self.x0) / z

    @_array_math
    def log_mgf_deriv(self, t):
        return self._log_sum(t, 1)

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
        if not (0 < self.shape < math.inf and 0 < self.scale < math.inf):
            raise ValueError("shape and scale must be finite and > 0")
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

    # the logs read the base 1 - theta t as mgf and mgf_deriv round it, not
    # log1p(-theta t): the power k + 1 scales that rounding in both alike
    @_array_math
    def log_mgf_and_mean(self, t):
        self._check_domain(t)
        base = 1.0 - self.scale * t
        return -self.shape * np.log(base), self.shape * self.scale / base

    @_array_math
    def log_mgf_deriv(self, t):
        self._check_domain(t)
        out = _scaled(t, -self.scale)
        out += 1.0
        np.log(out, out=out)
        out *= -(self.shape + 1.0)
        out += math.log(self.shape * self.scale)
        return out

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
    which also handles the removable singularity at t = 0.  M and M' share
    one expm1(t w) per point.  The log-space kernels factor out e^{t lo}
    where t <= 0 and e^{t hi} where t > 0, so that expm1 never overflows.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi < math.inf):
            raise ValueError(f"need 0 <= lo < hi < inf, got [{self.lo}, {self.hi}]")

    @_array_math
    def mgf(self, t):
        s = t * (self.hi - self.lo)
        return np.exp(t * self.lo) * _expm1_over(s, np.expm1(s))

    @_array_math
    def mgf_deriv(self, t):
        return self.mgf_and_deriv(t)[1]

    @_array_math
    def mgf_and_deriv(self, t):
        w = self.hi - self.lo
        s = t * w
        em1 = np.expm1(s)
        shift = np.exp(t * self.lo)
        ratio = _expm1_over(s, em1)
        return shift * ratio, shift * (self.lo * ratio + w * _expm1_over_deriv(s, em1))

    @_array_math
    def log_mgf_and_mean(self, t):
        w = self.hi - self.lo
        with np.errstate(over="ignore", invalid="ignore"):  # t > 0 is replaced below
            log_m, mean = _uniform_log_tilt(t, self.lo, w)
        up = t > 0.0
        if up.any():
            up_log_m, up_mean = _uniform_log_tilt(np.maximum(t, 0.0), self.hi, -w)
            log_m, mean = np.where(up, up_log_m, log_m), np.where(up, up_mean, mean)
        return log_m, mean

    @_array_math
    def log_mgf_deriv(self, t):
        w = self.hi - self.lo
        with np.errstate(over="ignore", invalid="ignore"):  # t > 0 is replaced below
            out = _uniform_log_deriv(t, self.lo, w)
        return _patch(t > 0.0, _uniform_log_deriv, (t, self.hi, -w), out)

    def log_mgf(self, t: float) -> float:
        # factor out the larger exponential so that nothing overflows
        tw = t * (self.hi - self.lo)
        if tw <= 0.0:
            tw = np.float64(tw)
            return t * self.lo + math.log(float(_expm1_over(tw, np.expm1(tw))))
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
    """Gaussian(mu, sigma) truncated to [lo, hi]; hi may be math.inf.

    Tilting by e^{tx} moves the standardized window [alpha, beta] to
    [a, b] = [alpha - sigma t, beta - sigma t].  One log-space kernel,
    ``_tilt``, gives ln M and the tilted mean M'/M for ``mgf``,
    ``mgf_deriv``, ``mgf_and_deriv``, ``log_mgf`` and the log-space pair
    on every window.  A window with a + b < 0 is mirrored, so that its near
    end l and far end h have |l| <= h; hi and beta then play the part of
    lo and alpha below.

    - A tail window, l >= 0: ln M = t lo - alpha^2/2 + ln(erfcx(l/√2)/2)
      + ln(1 - rho) - ln Z, with rho = erfcx(h/√2)/erfcx(l/√2) ·
      e^{-(h-l)(h+l)/2}, and the hazard at the near end is
      √(2/π) / (erfcx(l/√2) (1 - rho)).
    - A window around the tilted mean, l < 0: the mass is
      ½[erf(h/√2) + erf(-l/√2)], a sum of positive terms.

    The scaled erfcx neither overflows nor underflows, so the asymptotic
    branches of the log_ndtr form are gone: neither ``_DEEP`` (ln M past
    lo_t = 1e5) nor ``_DEEP_MEAN`` (the mean past 1e3) remains.  The mean's
    distance from the near end, hazard - l, cancels as l grows; beyond
    l = 12 it comes from Laplace's continued fraction instead.  Where
    e^{-(h-l)(h+l)/2} is held at e^-700 (see ``_EXP_FLOOR``), every
    far-end term sits under half an ulp of what it joins, and the window
    is read as half-infinite, with the same bits: erfcx(h/√2) is not
    evaluated there, and an input held at every point forms no far-end
    term at all.  On the test laws M and M' are within 3e-14 of 40-digit
    quadrature, plus the ulp of ln M that exp magnifies.  A narrow window (rho near 1) loses digits
    to cancellation, and the kernel refuses a point as nan rather than
    return a wrong value: ln M where 1 - rho < 2^-26, the mean where its
    rounding error is over 2^-26 of it or where it leaves [lo, hi].  Such
    a law's epsilon is inf.
    """

    mu: float
    sigma: float
    lo: float
    hi: float = math.inf

    def __post_init__(self):
        if not (0 < self.sigma < math.inf and math.isfinite(self.mu)):
            raise ValueError("sigma must be finite and > 0, and mu finite")
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi}]")
        alpha = (self.lo - self.mu) / self.sigma
        beta = (self.hi - self.mu) / self.sigma
        if alpha < 0.0 < beta:
            cdf, tail = (float(special.ndtr(alpha)), float(special.ndtr(beta))), None
        else:
            # Invert the tail holding [alpha, beta] in log space: ndtr
            # rounds to 1 beyond about 8.3, where inverting between the two
            # CDF values would return inf.  The sign s mirrors the lower
            # tail (beta <= 0) onto the upper one.
            s = 1.0 if alpha >= 0.0 else -1.0
            near, far = (alpha, beta) if s > 0 else (beta, alpha)
            log_near = special.log_ndtr(-s * near)
            cdf, tail = None, (s, log_near,
                               -np.expm1(special.log_ndtr(-s * far) - log_near))
        # per-law constants, computed once: the standardized bounds, the
        # window's half-width (None when hi is inf) and what the sampler
        # inverts between; _c_lo and _c_hi follow from the kernel at t = 0
        half = None if math.isinf(beta) else 0.5 * (beta - alpha)
        for name, value in (("_alpha", alpha), ("_beta", beta), ("_half", half),
                            ("_c_lo", 0.0), ("_c_hi", 0.0), ("_cdf", cdf), ("_tail", tail)):
            object.__setattr__(self, name, value)
        # ln M = max(t lo - alpha^2/2, t hi - beta^2/2) + core - ln Z, and
        # ln Z is that at t = 0; each c holds its end's constants, so that
        # M(0) is exactly 1 and M'(0) is the mean found here
        core, mean = map(float, self._tilt(np.asarray(0.0), with_mean=True))
        if half is None:
            c_lo, c_hi = -core, None
        else:
            squares = half * (beta + alpha)  # (beta^2 - alpha^2)/2
            c_lo, c_hi = min(0.0, squares) - core, min(0.0, -squares) - core
        for name, value in (("_c_lo", c_lo), ("_c_hi", c_hi), ("_mean", mean)):
            object.__setattr__(self, name, value)

    def _tilt(self, t: np.ndarray, with_mean: bool = False):
        """ln M(t), and with ``with_mean`` the tilted mean M'(t)/M(t)."""
        st = self.sigma * t
        if self._half is None:  # [a, inf) is never mirrored
            l, h, q, e_h = self._alpha - st, math.inf, None, None
            base = t * self.lo + self._c_lo
        else:
            # a = alpha - sigma t and -b, as the window's ends; a < -b
            # mirrors it, and l, h = max(a, -b), max(b, -a)
            a = self._alpha - st
            st -= self._beta
            mirrored = a < st
            l, h = np.maximum(a, st), -np.minimum(a, st)
            del a, st  # each dead array is let go, to bound a density-grid block's peak
            # q = phi(h)/phi(l) only scales erfcx(h/√2) <= erfcx(l/√2), is
            # taken from 1, and scales the far end's terms in the mean,
            # which are smaller still; it is held at the floor where it is
            # smaller.  Where it is held and l < _HELD_REACH, each of those
            # terms is under half an ulp of what it joins (each site says
            # why), so they are dropped as on a half-infinite window: q and
            # e_h = erfcx(h/√2) read 0 there, and e_h is not evaluated; where
            # that holds at every point, q and e_h are None, and no far-end
            # term is formed
            ln_q = l + h
            ln_q *= -self._half
            kept = (ln_q > _EXP_FLOOR) | (l >= _HELD_REACH)
            if kept.all():  # as at every scalar t that keeps them: no zeros, no patch
                q, e_h = _held_exp(ln_q), _erfcx_std(h)
            elif kept.any():
                q = _patch(kept, _held_exp, (ln_q,), np.zeros_like(t))
                e_h = _patch(kept, _erfcx_std, (h,), np.zeros_like(t))
            else:
                q = e_h = None
            del ln_q, kept
            # t*end - end_std^2/2 of the near end is the larger of the two
            base = np.maximum(t * self.lo + self._c_lo, t * self.hi + self._c_hi)
        with np.errstate(all="ignore"):  # g is unused, and may be inf, at straddling points
            # the standard normal mass of [l, h]: e^{-l^2/2} g/2 on a tail,
            # with log_k = ln(g/2); on a straddle (l < 0) log_k is the log of
            # the mass itself, (erf(h/√2) + erf(-l/√2))/2, a sum of positive terms
            straddle = l < 0.0
            e_l = _erfcx_std(l)  # overflows at l << 0, where it is unused
            # a dropped e_h q <= e_l e^-700 is under half an ulp of e_l (or
            # rounds to 0 where e_l is subnormal): g = e_l to the bit
            g = e_l if q is None else e_l - e_h * q
            log_k = _patch(straddle, _straddle_log_mass, (l, h), np.log(0.5 * g))
            # ln(e^{l^2/2} times the tilted mass): l^2/2 is added on a straddle
            core = _patch(straddle, _plus_half_square, (log_k, l), log_k)
            if self._half is not None:
                # a narrow window cancels g = erfcx(l/√2)(1 - rho) to under
                # _KEPT of erfcx(l/√2), and ln M in a tail loses more than
                # half its digits with it: such a point reads nan.  A
                # straddle that narrow is refused too, though its erf mass
                # is exact, since its mean is beyond reach all the same (g
                # is inf, and kept, where erfcx overflows)
                core = _patch(g < _KEPT * e_l, lambda: np.nan, (), core)
            base += core  # ln M = base + core, in base's array
            log_m = base
            if not with_mean:
                return log_m
            # the hazard at the near end, phi(l)/mass: √(2/π)/g on a tail,
            # and e^{-core}/√(2π) on a straddle, held at the floor where it
            # only adds to the mean's distance |l| > 37 from the near end
            r = _patch(straddle, _straddle_hazard, (core,), _SQRT_2_OVER_PI / g)
            # the tilted mean's distance from the near end, in units of
            # sigma.  A dropped q leaves 1 - q = 1 - e^-700, which rounds to
            # 1; _deep_excess's far term q(√(2/π) - l e_h) lies in
            # [0, q √(2/π)] (x erfcx(x) < 1/√π), under half an ulp of its
            # near term, over √(2/π)/(1.03 l^2) at l > 12, below _HELD_REACH
            if q is None:
                ev = _patch(l > _CF_FROM, _deep_excess, (l, e_l, g), r - l)
            else:
                ev = _patch(l > _CF_FROM, _deep_excess, (l, e_l, g, q, e_h), r * (1.0 - q) - l)
            if self._half is None:
                return log_m, self.lo + self.sigma * ev
            mean = _patch(mirrored, lambda ev: self.hi - self.sigma * ev, (ev,),
                          self.lo + self.sigma * ev)
            # In a narrow window (q near 1) ev keeps about r q ulp of
            # rounding, from g and from 1 - q; in a wide one that error is
            # far below ev.  A point reads nan where it is over _KEPT of
            # the mean, or where ev leaves [0, beta - alpha] and so the
            # mean leaves [lo, hi]; a nan mean stays nan.  Where q is
            # dropped, the first test cannot hold: r <= max(l, 0) + 1 and
            # the mean is at least sigma min(1/(2|l| + 3), half/2), so below
            # l = _HELD_REACH, r e^-700 sigma _KEPT is far under it
            bad = (ev < 0.0) | (ev > 2.0 * self._half)
            if q is not None:
                bad |= r * q * (self.sigma * _KEPT) > mean
            return log_m, _patch(bad, lambda: np.nan, (), mean)

    @_array_math
    def mgf(self, t):
        return np.exp(self._tilt(t))

    def log_mgf(self, t: float) -> float:
        return float(self._tilt(np.asarray(t, float)))

    @_array_math
    def mgf_deriv(self, t):
        return self.mgf_and_deriv(t)[1]

    @_array_math
    def mgf_and_deriv(self, t):
        log_m, mean = self._tilt(t, with_mean=True)
        m = np.exp(log_m)
        return m, m * mean

    @_array_math
    def log_mgf_and_mean(self, t):
        return self._tilt(t, with_mean=True)

    def mean(self) -> float:
        return self._mean

    def sample(self, rng, size=None):
        if self._tail is None:
            lo, hi = self._cdf  # the same bits as rng.uniform(lo, hi, size)
            z = special.ndtri(lo + (hi - lo) * rng.random(size))
        else:
            s, log_near, frac = self._tail
            z = -s * special.ndtri_exp(log_near + np.log1p(-frac * rng.random(size)))
        x = self.mu + self.sigma * z
        return np.clip(x, self.lo, self.hi) if size is not None else float(
            min(max(x, self.lo), self.hi)
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
        # product rule over one (M, M') pair per term, accumulated in place
        pairs = [d.mgf_and_deriv(a * t) for a, d in self.terms]
        out = np.zeros_like(t)
        for j, (a, _) in enumerate(self.terms):
            part = a * pairs[j][1]
            for i, (v, _) in enumerate(pairs):
                if i != j:
                    part *= v
            out += part
        return out

    mgf_and_deriv = MgfDist.mgf_and_deriv

    @_array_math
    def log_mgf_and_mean(self, t):
        """The terms' ln M add, and so do their tilted means, each times
        its coefficient: M' = M sum_j a_j mu_j."""
        (a, d), *rest = self.terms
        log_m, mean = d.log_mgf_and_mean(a * t)
        mean = a * mean
        for a, d in rest:
            term_log_m, term_mean = d.log_mgf_and_mean(a * t)
            log_m += term_log_m
            mean += a * term_mean
        return log_m, mean

    @_array_math
    def log_mgf_deriv(self, t):
        if len(self.terms) > 1:
            return MgfDist.log_mgf_deriv(self, t)
        (a, d), = self.terms
        if a == 1.0:  # a t is t, and ln a adds 0
            return d.log_mgf_deriv(t)
        out = d.log_mgf_deriv(a * t)
        out += math.log(a)
        return out

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
