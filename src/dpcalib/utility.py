"""Utility metrics and error bounds for compound-Laplace noise.

Prior-independent bounds come straight from the MGF of the reciprocal
scale: usefulness is 1 - M(-gamma), and l1 and l2 are the norms
(E|noise|^p)^(1/p) at p = 1 and 2, with E|noise|^p = p! E[X^-p] =
p int_0^inf x^(p-1) M(-x) dx.  At p = 2 that integral is the nested tail
integral of M(-x) (Fubini).  It is taken by one trapezoid rule in ln x
whose tails are closed by exact power-law remainders.  Prior-dependent
metrics (Mallows, KL, Renyi) are estimated by Monte Carlo over the
two-fold noise, which is also how arbitrary per-scale error bounds are
lifted to the compound mechanism; ``noise_metric`` scores usefulness, l1
and l2 on noise draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import LinearCombo, MgfDist
from .mechanisms import CompoundLaplace, sample_noise


class DivergentIntegralError(ArithmeticError):
    """The requested error bound is infinite for this combination."""


class LengthMismatchError(ValueError):
    pass


class BinMismatchError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    pass


# usefulness, l1 and l2 are linear in the law of 1/b and need no prior, as is
# mallows at p = 1 (``norm_power``); the others are Monte-Carlo estimates
LINEAR_METRICS = ("usefulness", "l1", "l2")
# l1 and l2 are the norms (E|noise|^p)^(1/p) at these p
NORM_POWERS = {"l1": 1, "l2": 2}
_PRIOR_DEPENDENT = ("mallows", "kl", "renyi")
METRICS = LINEAR_METRICS + _PRIOR_DEPENDENT


@dataclass(frozen=True)
class Histogram:
    """Binned probability masses; ``total`` is the record count they represent.

    ``total`` matters for noisy-histogram experiments: counting noise is
    applied at the count scale (mass * total) before renormalizing.
    """

    bin_edges: tuple[float, ...]
    masses: tuple[float, ...]
    total: float = 1.0

    def __post_init__(self):
        edges = tuple(float(e) for e in self.bin_edges)
        masses = tuple(float(m) for m in self.masses)
        if len(masses) != len(edges) - 1:
            raise ValueError("need len(masses) == len(bin_edges) - 1")
        if any(e2 <= e1 for e1, e2 in zip(edges, edges[1:])):
            raise ValueError("bin edges must be strictly increasing")
        if any(m < 0 for m in masses):
            raise ValueError("masses must be non-negative")
        if abs(sum(masses) - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, got {sum(masses)}")
        if self.total <= 0:
            raise ValueError("total must be > 0")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def uniform(cls, n_bins: int, lo: float = 0.0, hi: float = 1.0, total: float = 1.0):
        edges = tuple(np.linspace(lo, hi, n_bins + 1))
        return cls(edges, (1.0 / n_bins,) * n_bins, total)

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write(f"# total: {self.total!r}\n")
            for edge, mass in zip(self.bin_edges, self.masses):
                fh.write(f"{edge!r} {mass!r}\n")
            fh.write(f"{self.bin_edges[-1]!r} 0.0\n")

    @classmethod
    def from_file(cls, path):
        total = 1.0
        edges, masses = [], []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "total:" in line:
                        total = float(line.split("total:", 1)[1])
                    continue
                e, m = line.split()
                edges.append(float(e))
                masses.append(float(m))
        return cls(tuple(edges), tuple(masses[:-1]), total)


@dataclass(frozen=True)
class UtilityGoal:
    """A metric identifier plus its parameters.

    metric      one of "usefulness", "l1", "l2", "mallows", "kl", "renyi"
    gamma       error bound for usefulness (> 0)
    p           norm index for mallows (>= 1)
    alpha       Renyi order (> 0, != 1)
    prior       real vector (mallows) or Histogram (kl / renyi)
    """

    metric: str
    gamma: float | None = None
    p: float | None = None
    alpha: float | None = None
    prior: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; known: {METRICS}")
        if self.metric == "usefulness" and not (self.gamma and self.gamma > 0):
            raise ValueError("usefulness needs gamma > 0")
        if self.metric == "mallows" and not (self.p and self.p >= 1):
            raise ValueError("mallows needs p >= 1")
        if self.metric == "renyi":
            if self.alpha is None or self.alpha <= 0 or self.alpha == 1.0:
                raise ValueError("renyi needs alpha > 0, alpha != 1")

    @property
    def higher_is_better(self) -> bool:
        return self.metric == "usefulness"

    @property
    def prior_dependent(self) -> bool:
        return self.metric in _PRIOR_DEPENDENT


def norm_power(goal: UtilityGoal) -> int | None:
    """p when the goal's value is the noise norm (E|noise|^p)^(1/p), else
    None: 1 for l1, 2 for l2, and 1 for Mallows at p = 1, whose mean
    |noise| over the entries is E|noise| whatever the prior."""
    if goal.metric == "mallows" and goal.p == 1:
        return 1
    return NORM_POWERS.get(goal.metric)


def usefulness_bound(combo: LinearCombo | MgfDist, gamma: float) -> float:
    """P(|noise| <= gamma) = 1 - M(-gamma)."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return 1.0 - combo.mgf(-gamma)


_NORM_RTOL = 1e-10  # relative agreement of two trapezoid levels


def _noise_norm(combo: LinearCombo | MgfDist, p: int) -> float:
    """(E|noise|^p)^(1/p), with E|noise|^p = p int_0^inf x^(p-1) M(-x) dx,
    by the trapezoid rule in s = ln(x * mean).

    That integral is mean^-p int F(s) ds, F(s) = e^{ps} M(-e^s/mean).
    A power-law tail of M is exponential in s and the body is smooth, so the
    rule converges geometrically.  The remainders are exact to first order:
    F(lo)/p on the left, where M = 1, and F(hi)/(q - p) on the right, where
    M ~ C x^-q with q = ``tail_power()`` (zero for an exponential tail).
    The step halves from 1/2, evaluating only the new midpoints, until two
    levels agree to 1e-10 or after 6 halvings.  The root is taken before
    the scale 1/mean, so the norm is finite wherever it is representable.
    """
    if combo.tail_power() <= p + 1e-12:
        raise DivergentIntegralError(
            f"E|noise|^{p} diverges: MGF tail decays like x^-{combo.tail_power():g}"
        )
    mean = combo.mean()
    lo = -40.0 / p
    with np.errstate(under="ignore", over="ignore"):
        # one pass at unit steps up to where e^{ps} stays finite; the grid
        # ends one step past the last point that still counts, and M above
        # 1e-250 keeps it out of the subnormal range
        u = np.exp(lo + np.arange(math.ceil(700.0 / p - lo) + 1))
        m = combo.mgf(-u / mean)
        f = u ** p * m
        last = np.flatnonzero((f > 1e-17 * f.max()) & (m > 1e-250))[-1]
        n = min(int(last) + 1, f.size - 1)
        f_lo, f_hi = float(f[0]), float(f[n])
        remainder = f_lo / p + f_hi / (combo.tail_power() - p)
        h, total = 1.0, float(np.sum(f[1:n])) + 0.5 * (f_lo + f_hi)
        prev = math.nan
        for _ in range(7):
            h *= 0.5
            u = np.exp(lo + h * np.arange(1.0, n / h, 2.0))
            total += float(np.sum(u ** p * combo.mgf(-u / mean)))
            cur = h * total + remainder
            if abs(cur - prev) <= _NORM_RTOL * abs(cur):
                break
            prev = cur
        return (p * cur) ** (1.0 / p) / mean


def l1_bound(combo: LinearCombo | MgfDist) -> float:
    """Expected absolute error E|noise| = int_0^inf M(-x) dx."""
    return _noise_norm(combo, 1)


def l2_bound(combo: LinearCombo | MgfDist) -> float:
    """Root expected squared error sqrt(E[noise^2]) = sqrt(2 int_0^inf x M(-x) dx)."""
    return _noise_norm(combo, 2)


def _mallows(d, p: float):
    """((1/n) sum |d_i|^p)^(1/p) along the last axis of ``d``."""
    return np.mean(np.abs(d) ** p, axis=-1) ** (1.0 / p)


def mallows_distance(x, y, p: float) -> float:
    """((1/n) sum |x_i - y_i|^p)^(1/p)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise LengthMismatchError(f"need equal-length vectors, got {x.shape} vs {y.shape}")
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(_mallows(x - y, p))


def _check_bins(p: Histogram, q: Histogram):
    if p.bin_edges != q.bin_edges:
        raise BinMismatchError("histograms must share bin edges")


def _kl(pm, qm):
    """D(p||q) along the last axis of ``qm`` for a 1-D ``pm``; +inf where
    q has a hole under p."""
    support = pm > 0
    p, q = pm[support], qm[..., support]
    with np.errstate(divide="ignore"):
        return np.sum(p * np.log(p / q), axis=-1)


def _renyi(pm, qm, alpha: float):
    """I_alpha(p||q) along the last axis of ``qm`` for a 1-D ``pm``.

    A hole of q under p gives +inf for alpha > 1 and is skipped for
    alpha < 1; a zero sum gives +inf.
    """
    support = pm > 0
    p, q = pm[support], qm[..., support]
    with np.errstate(divide="ignore", invalid="ignore"):
        # a hole makes its term 0 for alpha < 1, which skips the bin, and
        # inf or nan (where p^alpha underflows) for alpha > 1, so that the
        # row's sum is inf or nan and the row scores +inf
        s = np.sum(p ** alpha * q ** (1.0 - alpha), axis=-1)
        return np.where(s > 0.0, np.log(s) / (alpha - 1.0), math.inf)


def kl_divergence(p: Histogram, q: Histogram) -> float:
    """D(p||q) = sum p_i ln(p_i/q_i); +inf where q has a hole under p."""
    _check_bins(p, q)
    return float(_kl(np.asarray(p.masses), np.asarray(q.masses)))


def renyi_divergence(p: Histogram, q: Histogram, alpha: float) -> float:
    """I_alpha(p||q) = ln(sum p_i^alpha q_i^(1-alpha)) / (alpha - 1)."""
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("alpha must be > 0 and != 1")
    _check_bins(p, q)
    return float(_renyi(np.asarray(p.masses), np.asarray(q.masses), alpha))


def noise_metric(goal: UtilityGoal, noise: np.ndarray) -> tuple[float, float]:
    """(estimate, standard error) of usefulness, l1 or l2 from noise draws;
    the error of a norm is that of mean |n|^p, carried through the root."""
    n = noise.size
    if goal.metric == "usefulness":
        hit = float(np.mean(np.abs(noise) <= goal.gamma))
        return hit, math.sqrt(max(hit * (1.0 - hit), 0.0) / n)
    p = NORM_POWERS[goal.metric]
    powers = np.abs(noise) ** p
    est = float(np.mean(powers)) ** (1.0 / p)
    se = float(np.std(powers) / math.sqrt(n))
    return est, se / (p * est ** (p - 1)) if est > 0 else 0.0


def expected_metric_empirical(
    combo: LinearCombo | MgfDist,
    goal: UtilityGoal,
    trials: int = 10_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Monte-Carlo estimate of the metric under two-fold noise.

    The noise is drawn through ``mechanisms.sample_noise``, the sampler a
    release uses.  Prior-independent metrics converge to the analytic
    bounds.  The prior-dependent ones read their prior from ``goal``:
    Mallows perturbs each vector entry independently, the entropy metrics
    perturb per-bin counts, clamp at zero and renormalize before
    evaluating the divergence on all trials at once.  A trial whose
    clamped counts sum to zero scores +inf.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    prior = goal.prior
    mech = CompoundLaplace(combo)

    if goal.metric in LINEAR_METRICS:
        return noise_metric(goal, sample_noise(mech, rng, trials))[0]

    if prior is None:
        raise ValueError(f"metric {goal.metric!r} needs a prior")

    if goal.metric == "mallows":
        base = np.asarray(prior, float)
        noise = sample_noise(mech, rng, (trials, base.size))
        return float(np.mean(_mallows(noise, goal.p)))

    masses = np.asarray(prior.masses)
    counts = masses * prior.total
    noise = sample_noise(mech, rng, (trials, counts.size))
    noisy = np.clip(counts[None, :] + noise, 0.0, None)
    totals = noisy.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = noisy / totals[:, None]
    vals = _kl(masses, q) if goal.metric == "kl" else _renyi(masses, q, goal.alpha)
    return float(np.mean(np.where(totals > 0, vals, math.inf)))


def transform_error_bound(
    base_bound,
    combo: LinearCombo | MgfDist,
    trials: int = 100_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Lift a per-scale Laplace error bound b -> e_L(b) to the compound
    mechanism by averaging over the distribution of b = 1/(combined RV)."""
    rng = np.random.default_rng(0) if rng is None else rng
    scales = np.asarray(combo.sample(rng, trials), float)
    vals = np.asarray([base_bound(1.0 / s) for s in scales], float)
    est = float(np.mean(vals))
    if not math.isfinite(est):
        raise NonFiniteError("Monte-Carlo estimate of the transformed bound diverged")
    return est
