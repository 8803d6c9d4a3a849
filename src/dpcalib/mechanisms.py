"""Executable noise mechanisms and their analytic baselines.

The compound-Laplace mechanism draws a reciprocal scale from its
second-fold combination, then adds Laplace noise at that scale.  A law
of one or two atoms (a one-term ``Degenerate`` or ``Bernoulli``, the
laws the linear metrics' optimum takes) has its Laplace scales computed
once, when the mechanism is built, and a release picks one of them: the
same generator calls and the same bits as drawing the scale.  The
staircase baseline is the geometric mixture of uniform bands: band k
(width = sensitivity) carries geometric mass with ratio e^-eps, and
within a band the upper sub-band's density is e^-eps times the lower's.
Its width parameter gamma_s defaults to the expected-|error|-optimal
1 / (1 + e^(eps/2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy_import
from .distributions import Bernoulli, Degenerate, LinearCombo, MgfDist

special = lazy_import("scipy.special")  # gaussian_sigma only

_UNDERFLOW = 1e-300
_REDRAWS = 100


class InputDomainError(ValueError):
    """The mechanism was applied to an input outside its domain."""


@dataclass(frozen=True)
class Laplace:
    b: float

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("scale b must be > 0")


@dataclass(frozen=True)
class CompoundLaplace:
    """Laplace noise whose reciprocal scale is drawn from ``combo``."""

    combo: LinearCombo | MgfDist

    def __post_init__(self):
        if not self.combo.mean() > 0:  # nan where the law's family cannot resolve it
            raise ValueError("the reciprocal-scale combination must have positive mean")
        # per-law constant, not a field: repr, equality and the record ignore it
        object.__setattr__(self, "_atoms", _atom_scales(self.combo))


def _atom_scales(combo: LinearCombo | MgfDist):
    """(p, b0, b1, table) for a law of one or two atoms, else None.

    The law is a one-term ``Degenerate`` or ``Bernoulli``, by exact type:
    a subclass may sample otherwise.  b0 and b1 are the Laplace scales
    1/(0 + a x) of the atoms x0 and x1, as the general path computes them
    from a draw; p is None for a point mass, and ``table`` is [b1, b0],
    indexed by u < p as ``Bernoulli.sample`` indexes its atoms.  An atom
    that can be drawn must give 0 + a x in [1e-300, inf): the general path
    would draw again, releasing the law conditioned on the other atom, or
    raise.
    """
    terms = combo.active_terms()
    if len(terms) != 1:
        return None
    (a, d), = terms
    if type(d) is Degenerate:
        p, x0, x1 = None, d.value, d.value
    elif type(d) is Bernoulli:
        p, x0, x1 = float(d.p), d.x0, d.x1
        # an atom of weight 0 is never drawn, so it takes the other's place
        if p == 0.0:
            x0 = x1
        elif p == 1.0:
            x1 = x0
    else:
        return None
    b0, b1 = (_release_scale(a, x) for x in (x0, x1))
    return p, b0, b1, np.array([b1, b0])


def _release_scale(a: float, x: float) -> float:
    s = 0.0 + a * x
    if not _UNDERFLOW <= s < math.inf:
        raise ValueError(f"the reciprocal scale {a!r} * {x!r} = {s!r} lies outside "
                         f"[{_UNDERFLOW}, inf), so it cannot be released")
    return float(1.0 / s)


@dataclass(frozen=True)
class Staircase:
    epsilon: float
    sensitivity: float = 1.0
    gamma_s: float | None = None  # None selects the default width

    def __post_init__(self):
        if self.epsilon <= 0 or self.sensitivity <= 0:
            raise ValueError("epsilon and sensitivity must be > 0")
        if self.gamma_s is not None and not (0.0 < self.gamma_s <= 1.0):
            raise ValueError("gamma_s must lie in (0, 1]")

    @property
    def width(self) -> float:
        return self.gamma_s if self.gamma_s is not None else staircase_default_width(self.epsilon)


@dataclass(frozen=True)
class Gaussian:
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")


@dataclass(frozen=True)
class RandomizedResponse:
    """Report the true bit with probability p, the flipped bit otherwise."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")


NoiseMechanism = Laplace | CompoundLaplace | Staircase | Gaussian | RandomizedResponse


def staircase_default_width(epsilon: float) -> float:
    return 1.0 / (1.0 + math.exp(epsilon / 2.0))


def staircase_sample(
    epsilon: float,
    sensitivity: float,
    gamma_s: float | None,
    rng: np.random.Generator,
    size=None,
):
    """Draw symmetric staircase noise.

    Band index k >= 0 is geometric with ratio e^-eps; within band k the
    draw lands in the lower sub-band [k, k + gamma_s) * sensitivity with
    probability gamma_s / (gamma_s + e^-eps (1 - gamma_s)), else in the
    upper sub-band, uniformly either way; the sign is a fair coin.
    """
    g = gamma_s if gamma_s is not None else staircase_default_width(epsilon)
    b = math.exp(-epsilon)
    p_lower = g / (g + b * (1.0 - g))
    if size is None:
        # the batch draws below, one value at a time in the same order
        k = rng.geometric(1.0 - b) - 1
        lower = rng.random() < p_lower
        u = rng.random()
        offset = g * u if lower else g + (1.0 - g) * u
        sign = -1.0 if rng.random() < 0.5 else 1.0
        return sign * (k + offset) * sensitivity
    k = rng.geometric(1.0 - b, size) - 1
    lower = rng.random(size) < p_lower
    u = rng.random(size)
    offset = np.where(lower, g * u, g + (1.0 - g) * u)
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return sign * (k + offset) * sensitivity


def standard_laplace(rng: np.random.Generator, size=None):
    """Unit-scale Laplace noise by the inverse CDF, never zero or infinite.

    With v = 2u for u uniform on [0, 1) and w = min(v, 2 - v), the noise
    is log(w) negated where v > 1; there 2 - v is exact (Sterbenz).  A u
    of 0 (log 0) or 1/2 (zero noise) is drawn again, up to ``_REDRAWS``
    times.  Both paths take numpy's vector log, so a scalar draw and a
    size-1 batch agree bit for bit; libm's log can differ in the last bit.
    """
    if size is None:
        # straight-line: a loop, min or copysign here costs a release
        # about as much again as the log
        v = 2.0 * rng.random()
        if 0.0 < v < 1.0:
            return float(np.log(v))
        if v > 1.0:
            return -float(np.log(2.0 - v))
        return float(_laplace_of_doubled(rng, np.array([v]))[0])
    v = rng.random(size)
    v += v
    return _laplace_of_doubled(rng, v)


def _laplace_of_doubled(rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
    """Unit Laplace noise from v = 2u, redrawing a u of 0 or 1/2; ``v`` is
    overwritten.  Whole-array ufuncs only: a random mask (np.where, where=,
    boolean indexing) costs several times the log, so masks run on
    redraws alone."""
    w = np.subtract(2.0, v)
    np.minimum(w, v, out=w)
    redraws = 0
    while not (w.min(initial=1.0) > 0.0 and w.max(initial=0.0) < 1.0):
        if redraws == _REDRAWS:
            raise InputDomainError(f"a uniform draw stayed at 0 or 1/2 after {_REDRAWS} redraws")
        redraws += 1
        bad = (w == 0.0) | (w == 1.0)
        v[bad] = 2.0 * rng.random(np.count_nonzero(bad))
        w[bad] = np.minimum(v[bad], 2.0 - v[bad])
    np.log(w, out=w)
    v -= 1.0
    return np.copysign(w, v, out=w)


def sample_noise(mech: NoiseMechanism, rng: np.random.Generator, size=None):
    """Draw additive noise for every mechanism except randomized response."""
    if type(mech) is CompoundLaplace and mech._atoms is not None:
        # one uniform picks a two-atom law's scale, as its sampler would
        p, b0, b1, table = mech._atoms
        if size is None:
            return (b0 if p is None or rng.random() < p else b1) * standard_laplace(rng)
        if p is None:
            noise = standard_laplace(rng, size)
            noise *= b0
            return noise
        pick = (rng.random(size) < p).view(np.int8)
        noise = standard_laplace(rng, size)
        noise *= table[pick]
        return noise
    if isinstance(mech, Laplace):
        noise = standard_laplace(rng, size)
        noise *= mech.b  # a float is rebound, an array scaled in place
        return noise
    if isinstance(mech, Gaussian):
        return rng.normal(0.0, mech.sigma, size)
    if isinstance(mech, Staircase):
        return staircase_sample(mech.epsilon, mech.sensitivity, mech.gamma_s, rng, size)
    if isinstance(mech, CompoundLaplace):
        # a reciprocal scale underflowing to zero would mean infinite noise,
        # and an infinite one zero noise: neither is ever released
        if size is None:
            scale = mech.combo.sample(rng)
            for _ in range(_REDRAWS):
                if not scale < _UNDERFLOW:
                    break
                scale = mech.combo.sample(rng)
            if not _UNDERFLOW <= scale < math.inf:
                raise InputDomainError(f"reciprocal scale {scale} is not finite and positive")
            return float((1.0 / scale) * standard_laplace(rng))
        scales = np.asarray(mech.combo.sample(rng, size), float)
        if not (scales.min(initial=_UNDERFLOW) >= _UNDERFLOW
                and scales.max(initial=0.0) < math.inf):
            for _ in range(_REDRAWS):
                bad = scales < _UNDERFLOW
                if not bad.any():
                    break
                scales[bad] = np.asarray(mech.combo.sample(rng, int(bad.sum())), float)
            if not ((scales >= _UNDERFLOW) & (scales < math.inf)).all():
                raise InputDomainError("a reciprocal scale is not finite and positive")
        # the sampler hands back a new array, so it is inverted in place
        noise = standard_laplace(rng, size)
        noise *= np.divide(1.0, scales, out=scales)
        return noise
    raise InputDomainError(f"{type(mech).__name__} does not produce additive noise")


def perturb(mech: NoiseMechanism, true_value: float, rng: np.random.Generator) -> float:
    """Release ``true_value`` through the mechanism."""
    if isinstance(mech, RandomizedResponse):
        if true_value not in (0, 1):
            raise InputDomainError(
                f"randomized response needs a bit in {{0, 1}}, got {true_value}"
            )
        keep = rng.random() < mech.p
        return float(true_value if keep else 1 - true_value)
    return float(true_value + sample_noise(mech, rng))


# --- analytic staircase utilities ----------------------------------------


def _staircase_density_peak(epsilon: float, sensitivity: float, g: float) -> float:
    b = math.exp(-epsilon)
    # 1 - b as -expm1(-eps) here and in staircase_norm, which cancels
    # against it: 1 - b loses its digits at small eps
    return -math.expm1(-epsilon) / (2.0 * sensitivity * (g + b * (1.0 - g)))


def staircase_usefulness(
    epsilon: float, sensitivity: float, gamma: float, gamma_s: float | None = None
) -> float:
    """P(|staircase noise| <= gamma)."""
    g = gamma_s if gamma_s is not None else staircase_default_width(epsilon)
    b = math.exp(-epsilon)
    a = _staircase_density_peak(epsilon, sensitivity, g)
    z = gamma / sensitivity
    m = int(z)
    s = z - m
    half = (1.0 - b ** m) / 2.0
    half += a * sensitivity * b ** m * (min(s, g) + b * max(0.0, s - g))
    return 2.0 * half


def staircase_norm(
    epsilon: float, sensitivity: float, p: int, gamma_s: float | None = None
) -> float:
    """(E|staircase noise|^p)^(1/p) for an integer p >= 1, in closed form.

    At unit sensitivity band k adds 2a b^k (I(k, k + g) + b I(k + g, k + 1)),
    with I the integral of x^p.  Expanding (k + c)^(p+1) in powers of k
    cancels the k^(p+1) terms and leaves E|noise|^p =
    2a/(p+1) sum_{j<=p} C(p+1, j) S_j (g^(p+1-j) + b (1 - g^(p+1-j))), with
    S_j = sum_k k^j b^k = N_j / (1 - b)^(j+1), N_0 = 1 and
    N_j = b sum_{i<j} C(j, i) N_i (1 - b)^(j-1-i).
    """
    g = gamma_s if gamma_s is not None else staircase_default_width(epsilon)
    b = math.exp(-epsilon)
    one_minus_b = -math.expm1(-epsilon)
    a = _staircase_density_peak(epsilon, 1.0, g)
    nums = [1.0]
    for j in range(1, p + 1):
        nums.append(b * sum(math.comb(j, i) * n * one_minus_b ** (j - 1 - i)
                            for i, n in enumerate(nums)))
    total = sum(math.comb(p + 1, j) * n / one_minus_b ** (j + 1)
                * (g ** (p + 1 - j) + b * (1.0 - g ** (p + 1 - j))) for j, n in enumerate(nums))
    return sensitivity * (2.0 * a * total / (p + 1)) ** (1.0 / p)


def staircase_log_density(mech: Staircase, xs) -> np.ndarray:
    """Log of the staircase noise density, vectorized over ``xs``."""
    g = mech.width
    b = math.exp(-mech.epsilon)
    a = _staircase_density_peak(mech.epsilon, mech.sensitivity, g)
    z = np.abs(np.asarray(xs, float)) / mech.sensitivity
    k = np.floor(z)
    upper = (z - k) >= g
    return math.log(a) - mech.epsilon * (k + upper)


def laplace_usefulness(epsilon: float, sensitivity: float, gamma: float) -> float:
    return 1.0 - math.exp(-gamma * epsilon / sensitivity)


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Smallest sigma with (eps, delta)-DP: (dq/2eps)(K + sqrt(K^2 + 2eps)),
    where K is the upper-tail normal quantile at delta."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    k = float(special.ndtri(1.0 - delta))
    return sensitivity / (2.0 * epsilon) * (k + math.sqrt(k * k + 2.0 * epsilon))
