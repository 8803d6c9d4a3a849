"""Closed-form privacy guarantees for compound-Laplace mechanisms.

The central identity: a Laplace mechanism whose reciprocal scale 1/b is
drawn from a distribution with MGF M has output density
p(x) = M'(-|x - q(d)|) / 2, and its exact epsilon-DP level is

    eps = ln( E[1/b] / M'(-sensitivity) ).

Per-family algebraic simplifications of that quantity live in
``epsilon_closed_form`` and must agree with the general route to within
floating-point error; the density-grid verifier provides a third,
independent route.  ``passes_necessary_condition`` is the filter
e^eps < M(sensitivity) that a law must pass to beat Laplace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    Bernoulli,
    Degenerate,
    DomainError,
    Gamma,
    LinearCombo,
    MgfDist,
    TruncGaussian,
    Uniform,
)


class UnsupportedFamilyError(ValueError):
    """No closed-form epsilon is available for this family."""


class GridError(ValueError):
    """The requested verification grid cannot cover enough output mass."""


def _require_positive(name: str, value: float) -> None:
    """``ValueError`` unless ``value`` is finite and > 0 (nan is not)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class PrivacySpec:
    """Privacy budget epsilon and query sensitivity."""

    epsilon: float
    sensitivity: float

    def __post_init__(self):
        _require_positive("epsilon", self.epsilon)
        _require_positive("sensitivity", self.sensitivity)


@dataclass(frozen=True)
class RdpPoint:
    alpha: float
    epsilon_rdp: float


def epsilon_of_combo(combo: LinearCombo | MgfDist, sensitivity: float) -> float:
    """Exact epsilon-DP level of the compound-Laplace mechanism using ``combo``."""
    _require_positive("sensitivity", sensitivity)
    deriv, mean = combo.mgf_deriv(-sensitivity), combo.mean()
    # underflow, or nan where a family cannot resolve the law: no finite
    # guarantee is certified
    if not (deriv > 0.0 and mean > 0.0):
        return math.inf
    return math.log(mean) - math.log(deriv)


def _epsilon_uniform(lo: float, hi: float, sensitivity: float) -> float:
    # ln[(beta^2 - alpha^2) / (2 ((1+alpha) e^-alpha - (1+beta) e^-beta))]
    # evaluated in log space; (1+x) e^-x is decreasing so the mass term is > 0.
    alpha = lo * sensitivity
    beta = hi * sensitivity
    la = math.log1p(alpha) - alpha
    lb = math.log1p(beta) - beta
    log_mass = la + math.log1p(-math.exp(lb - la)) if lb - la < -1e-17 else (
        math.log(math.expm1(la - lb)) + lb
    )
    return math.log(beta * beta - alpha * alpha) - math.log(2.0) - log_mass


def epsilon_closed_form(dist: MgfDist, sensitivity: float) -> float:
    """Per-family closed form of the epsilon-DP level.

    Every family in ``FAMILIES`` has one; another ``MgfDist`` raises
    ``UnsupportedFamilyError``.  Values agree with ``epsilon_of_combo`` on
    the corresponding singleton to floating-point precision.
    """
    _require_positive("sensitivity", sensitivity)
    dq = sensitivity
    if isinstance(dist, Degenerate):
        return dist.value * dq
    if isinstance(dist, Bernoulli):
        num = dist.p * dist.x0 + (1 - dist.p) * dist.x1
        den = (dist.p * dist.x0 * math.exp(-dist.x0 * dq)
               + (1 - dist.p) * dist.x1 * math.exp(-dist.x1 * dq))
        return math.log(num) - math.log(den)
    if isinstance(dist, Gamma):
        return (dist.shape + 1.0) * math.log1p(dq * dist.scale)
    if isinstance(dist, Uniform):
        return _epsilon_uniform(dist.lo, dist.hi, dq)
    if isinstance(dist, TruncGaussian):
        return math.log(dist.mean()) - math.log(dist.mgf_deriv(-dq))
    raise UnsupportedFamilyError(
        f"no closed-form epsilon for {type(dist).__name__}; use epsilon_of_combo"
    )


def passes_necessary_condition(combo: LinearCombo | MgfDist, sensitivity: float) -> bool:
    """The utility-improvement filter e^eps < M(sensitivity), strict.

    A law failing it cannot beat the Laplace mechanism of the same
    epsilon on any utility metric.  A point mass *is* that Laplace
    mechanism (equality holds identically) and passes; a law whose MGF
    does not exist at +sensitivity fails.
    """
    eps = epsilon_of_combo(combo, sensitivity)
    if all(isinstance(d, Degenerate) for _, d in combo.active_terms()):
        return True
    if combo.mgf_domain_sup() <= sensitivity:
        return False
    m = combo.mgf(sensitivity)
    return m > 0.0 and math.log(m) > eps


def _randomized_response_rdp(p: float, alpha: float) -> float:
    if alpha == 1.0:
        return (2.0 * p - 1.0) * math.log(p / (1.0 - p))
    lp, lq = math.log(p), math.log1p(-p)
    log_sum = np.logaddexp(alpha * lp + (1.0 - alpha) * lq,
                           (1.0 - alpha) * lp + alpha * lq)
    return float(log_sum) / (alpha - 1.0)


def _combo_rdp(combo: LinearCombo | MgfDist, alpha: float, sensitivity: float) -> float:
    # sensitivity != 1 is handled by analyzing the normalized query:
    # M(t) -> M(sensitivity * t).
    dq = sensitivity
    if alpha == 1.0:
        return dq * combo.mgf_deriv(0.0) + combo.mgf(-dq) - 1.0
    if combo.mgf_domain_sup() <= dq * (alpha - 1.0):
        raise DomainError(
            f"MGF does not exist at {dq * (alpha - 1.0)}; "
            f"order-{alpha} privacy moment is unbounded"
        )
    # ln(alpha M(dq (alpha-1)) + (alpha-1) M(-dq alpha)), in log space
    log_num = np.logaddexp(math.log(alpha) + combo.log_mgf(dq * (alpha - 1.0)),
                           math.log(alpha - 1.0) + combo.log_mgf(-dq * alpha))
    return float(log_num - math.log(2.0 * alpha - 1.0)) / (alpha - 1.0)


def rdp_of(mechanism, alpha: float, sensitivity: float = 1.0) -> RdpPoint:
    """Renyi-DP level of order ``alpha`` for the four supported mechanisms.

    ``mechanism`` is a ``mechanisms.Laplace``/``Gaussian``/
    ``RandomizedResponse``/``CompoundLaplace`` instance or a bare
    ``LinearCombo`` or ``MgfDist`` (treated as compound Laplace).
    Formulas assume unit sensitivity; other sensitivities rescale the MGF
    argument (Laplace, compound) or the noise ratio (Gaussian).
    Randomized response is inherently a binary query and ignores
    ``sensitivity``.

    For a compound law the value is an upper bound, not the level itself:
    it is (1/(alpha-1)) ln E_X[e^{(alpha-1) D_alpha(Laplace(1/X))}], the
    Renyi level of a mechanism that also releases the scale X.  Dropping
    X is post-processing, so the compound mechanism's level is at most
    this.  For a point-mass (degenerate) law the two are equal.
    """
    from . import mechanisms as mech_mod

    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if isinstance(mechanism, (LinearCombo, MgfDist)):
        return RdpPoint(alpha, _combo_rdp(mechanism, alpha, sensitivity))
    if isinstance(mechanism, mech_mod.CompoundLaplace):
        return RdpPoint(alpha, _combo_rdp(mechanism.combo, alpha, sensitivity))
    if isinstance(mechanism, mech_mod.Laplace):
        return RdpPoint(alpha, _combo_rdp(Degenerate(1.0 / mechanism.b), alpha, sensitivity))
    if isinstance(mechanism, mech_mod.Gaussian):
        return RdpPoint(alpha, alpha * sensitivity ** 2 / (2.0 * mechanism.sigma ** 2))
    if isinstance(mechanism, mech_mod.RandomizedResponse):
        return RdpPoint(alpha, _randomized_response_rdp(mechanism.p, alpha))
    raise TypeError(f"unsupported mechanism {mechanism!r}")


# output mass the verification grid may leave uncovered, and the caps on
# the automatic radius and on the grid's point count
_TAIL_MASS = 1e-9
_MAX_RADIUS = 1e7
_MAX_POINTS = 4e6


# the radius scan splits (r/2, r] into 2^steps equal parts: the radius is
# at most (1 + 2^-steps) times the smallest one that meets the tail mass
_SHRINK_STEPS = 6


# halvings of the start radius read per M call
_HALVINGS = 64


def _auto_radius(combo: LinearCombo | MgfDist, step: float, sensitivity: float) -> float:
    # Total output mass beyond distance R from the center is M(-R), which
    # decreases in R: the radius is the first covered point of two scans,
    # one M call each.  The rungs r0 2^j run from _HALVINGS halvings of r0
    # (re-read below while the lowest is covered) up to the last doubling
    # the caps allow; then 2^steps evenly spaced points of (r/2, r] under
    # the first covered rung r.  Their spacing, r / 2^(steps+1), is at most
    # 2^-steps of any radius in (r/2, r], so one vector M call bounds the
    # relative excess of the radius however large r is.  The doubling
    # budget counts the signed grid, (2R + sensitivity) / step, not the
    # m + k + 1 radial points: a tighter count would let laws that take
    # the fallback today double instead.  The fallback, where no rung is
    # covered, leaves more than the tail mass uncovered: for power-law MGF
    # tails the target can be unreachable, but the log-ratio is monotone
    # beyond the two centers (log-convexity of M'), so its sup lies inside
    # [0, sensitivity] and a bounded radius loses nothing.
    r0 = max(1.0, 2.0 * sensitivity)
    doublings = 0
    while ((r := r0 * 2.0 ** (doublings + 1)) <= _MAX_RADIUS
           and (2.0 * r + sensitivity) / step <= _MAX_POINTS):
        doublings += 1
    rungs = np.ldexp(r0, np.arange(-_HALVINGS, doublings + 1))
    covered = combo.mgf(-rungs) <= _TAIL_MASS
    while covered[0]:
        rungs = np.ldexp(rungs[0], np.arange(-_HALVINGS, 1))
        covered = combo.mgf(-rungs) <= _TAIL_MASS
    i = covered.argmax()
    if not covered[i]:
        return min(8.0 * sensitivity + 16.0 / combo.mean(), _MAX_POINTS * step / 2.0)
    points = np.linspace(rungs[i] / 2.0, rungs[i], 2 ** _SHRINK_STEPS + 1)
    covered = combo.mgf(-points[1:-1]) <= _TAIL_MASS
    i = covered.argmax()
    return float(points[i + 1] if covered[i] else points[-1])


def density_grid_epsilon(log_density, shift: float, radius: float, step: float) -> float:
    """Sup over a grid of |ln p(x) - ln p(x - shift)| for a noise log-density.

    ``log_density`` must be even, ln p(x) = ln p(-x), as every noise law
    here is.  The grid x = h*i, i = -m..m+k, has spacing
    h = shift / ceil(shift/step) <= step, covers [-radius, shift + radius]
    and holds 0 and shift.  Both sides of every pair (x, x - shift) are
    read from one evaluation per radial point |x| = h*i, i = 0..m+k.
    Raises ``GridError``, before allocating, when m + k + 1 exceeds the
    point cap (4e6), and ``ValueError`` unless shift and step are finite
    and > 0.
    """
    _require_positive("shift", shift)
    _require_positive("step", step)
    k = math.ceil(shift / step)
    h = shift / k
    m = math.ceil(radius / h)
    if m + k + 1 > _MAX_POINTS:
        raise GridError(
            f"step {step:g} at radius {radius:g} needs {m + k + 1} grid points; "
            f"the cap is {_MAX_POINTS:g}"
        )
    ld = log_density(h * np.arange(m + k + 1))
    # x <= 0 (its mirror x >= shift gives the negated pairs), then 0 <= x <= shift
    sup = max(_finite_abs_max(ld[:m + 1] - ld[k:]), _finite_abs_max(ld[:k + 1] - ld[k::-1]))
    if sup < 0.0:
        raise GridError("log-density ratio is nowhere finite on the grid")
    return sup


def _finite_abs_max(diff: np.ndarray) -> float:
    """max |diff| over the finite entries of a fresh array, -1 if none."""
    np.abs(diff, out=diff)
    top = float(diff.max())  # nan or inf if any entry is not finite
    if math.isfinite(top):
        return top
    return float(np.max(diff, where=np.isfinite(diff), initial=-1.0))


def verify_epsilon_empirically(
    combo: LinearCombo | MgfDist, sensitivity: float, step: float = 1e-3
) -> float:
    """Empirical epsilon: sup of the output-density log-ratio over a grid.

    The output density is the analytic p(x) = M'(-|x|)/2, even in x.  The
    grid spacing is sensitivity / ceil(sensitivity / step) <= step, so 0
    and the sensitivity lie on it, and M' is evaluated once per radial
    point (see ``density_grid_epsilon``).  The radius is the smallest one,
    to within 1/64 however small or large, that leaves at most 1e-9 of the
    output mass outside; where doubling toward it would pass the caps, a
    bounded fallback radius is used (see ``_auto_radius``).  A law whose
    mean is not finite and > 0 (nan where its family cannot resolve it)
    raises ``GridError`` before any grid work, and so does a grid of more
    than 4e6 radial points.  The returned value can exceed
    ``epsilon_of_combo`` only by floating-point error, and matches it at
    the grid point x = 0.
    """
    _require_positive("sensitivity", sensitivity)
    _require_positive("step", step)
    mean = combo.mean()
    if not 0.0 < mean < math.inf:
        raise GridError(f"the law's mean is {mean}, not finite and > 0: "
                        f"no grid can audit it")
    radius = _auto_radius(combo, step, sensitivity)

    def log_density(xs):  # the grid's radial points are >= 0
        with np.errstate(divide="ignore"):
            return np.log(combo.mgf_deriv(-xs))

    return density_grid_epsilon(log_density, sensitivity, radius, step)
