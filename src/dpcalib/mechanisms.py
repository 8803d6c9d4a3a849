"""Executable noise mechanisms and their analytic baselines.

The compound-Laplace mechanism draws a reciprocal scale from its
second-fold combination, then adds Laplace noise at that scale.  The
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
from scipy import special

from .distributions import LinearCombo, MgfDist

_UNDERFLOW = 1e-300


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
        if self.combo.mean() <= 0:
            raise ValueError("the reciprocal-scale combination must have positive mean")


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


def sample_noise(mech: NoiseMechanism, rng: np.random.Generator, size=None):
    """Draw additive noise for every mechanism except randomized response."""
    if isinstance(mech, Laplace):
        return rng.laplace(0.0, mech.b, size)
    if isinstance(mech, Gaussian):
        return rng.normal(0.0, mech.sigma, size)
    if isinstance(mech, Staircase):
        return staircase_sample(mech.epsilon, mech.sensitivity, mech.gamma_s, rng, size)
    if isinstance(mech, CompoundLaplace):
        # a reciprocal scale underflowing to zero would mean infinite noise,
        # and an infinite one zero noise: neither is ever released
        if size is None:
            scale = mech.combo.sample(rng)
            for _ in range(100):
                if not scale < _UNDERFLOW:
                    break
                scale = mech.combo.sample(rng)
            if not _UNDERFLOW <= scale < math.inf:
                raise InputDomainError(f"reciprocal scale {scale} is not finite and positive")
            return float(rng.laplace(0.0, 1.0 / scale))
        scales = np.asarray(mech.combo.sample(rng, size), float)
        for _ in range(100):
            bad = scales < _UNDERFLOW
            if not bad.any():
                break
            scales[bad] = np.asarray(mech.combo.sample(rng, int(bad.sum())), float)
        if not ((scales >= _UNDERFLOW) & (scales < math.inf)).all():
            raise InputDomainError("a reciprocal scale is not finite and positive")
        return rng.laplace(0.0, 1.0 / scales)
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
