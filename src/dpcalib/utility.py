"""Utility metrics and error bounds for compound-Laplace noise.

Prior-independent bounds come straight from the MGF of the reciprocal
scale: usefulness is 1 - M(-gamma), and l1 and l2 are the norms
(E|noise|^p)^(1/p) at p = 1 and 2, with E|noise|^p = p! E[X^-p] =
p int_0^inf x^(p-1) M(-x) dx.  At p = 2 that integral is the nested tail
integral of M(-x) (Fubini).  It is taken by one trapezoid rule in ln x
whose tails are closed by exact power-law remainders.  Prior-dependent
metrics (Mallows, KL, Renyi) are estimated by Monte Carlo over the
two-fold noise; ``noise_metric`` scores usefulness, l1 and l2 on noise
draws.  ``TwoAtomMetric`` is the smooth estimate of the
prior-dependent metrics that the two-atom search optimizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._lazy import lazy_import
from .distributions import LinearCombo, MgfDist
from .mechanisms import CompoundLaplace, sample_noise

special = lazy_import("scipy.special")  # TwoAtomMetric only


class DivergentIntegralError(ArithmeticError):
    """The requested error bound is infinite for this combination."""


class LengthMismatchError(ValueError):
    pass


class BinMismatchError(ValueError):
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
    gamma       error bound for usefulness (finite, > 0)
    p           norm index for mallows (finite, >= 1)
    alpha       Renyi order (finite, > 0, != 1)
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
        if self.metric == "usefulness" and not (self.gamma and 0 < self.gamma < math.inf):
            raise ValueError("usefulness needs a finite gamma > 0")
        if self.metric == "mallows" and not (self.p and 1 <= self.p < math.inf):
            raise ValueError("mallows needs a finite p >= 1")
        if self.metric == "renyi":
            if self.alpha is None or not 0 < self.alpha < math.inf or self.alpha == 1.0:
                raise ValueError("renyi needs a finite alpha > 0, alpha != 1")

    @property
    def higher_is_better(self) -> bool:
        return self.metric == "usefulness"

    @property
    def prior_dependent(self) -> bool:
        return self.metric in _PRIOR_DEPENDENT and norm_power(self) is None


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
    """(estimate, standard error) of usefulness or a noise norm (l1, l2,
    mallows at p = 1) from noise draws; the error of a norm is that of
    mean |n|^p, carried through the root."""
    n = noise.size
    if goal.metric == "usefulness":
        hit = float(np.count_nonzero(np.abs(noise) <= goal.gamma) / n)
        return hit, math.sqrt(max(hit * (1.0 - hit), 0.0) / n)
    p = norm_power(goal)
    powers = np.abs(noise) ** p
    # np.mean and np.std's own ufuncs, without their Python wrappers
    mean = np.add.reduce(powers, axis=None) / n
    est = float(mean) ** (1.0 / p)
    np.subtract(powers, mean, out=powers)
    np.multiply(powers, powers, out=powers)
    se = float(np.sqrt(np.add.reduce(powers, axis=None) / n) / math.sqrt(n))
    return est, se / (p * est ** (p - 1)) if est > 0 else 0.0


_CHUNK_SUMS = 1 << 19  # numbers in one chunk's n + 1 sums of a term


class TwoAtomMetric:
    """A smooth, unbiased estimate of mallows, kl or Renyi for the two-atom
    laws of 1/b, on draws fixed when it is built.

    Each of ``trials`` trials holds one standard-Laplace draw per entry
    (vector entry or histogram bin), ``rng.laplace(size=(trials, n))``,
    and for the divergences one random order of the entries, ``order =
    rng.permuted`` of ``arange(n)`` per trial: column j of trial t belongs
    to entry ``order[t, j]`` (for Mallows, whose sum treats the entries
    alike, to entry j).  Under the law with weight w on x_lo and 1 - w on x_hi
    the number K of entries that draw x_lo is Binomial(n, w), and given K
    they are a uniform K-subset, here the first K of the order.  So the
    estimate is sum_K Binom(n, w)(K) times the mean over trials of the
    metric when the first K entries take x_lo and the rest x_hi: unbiased,
    and smooth in (w, x_lo, x_hi), as the draws never change.

    Each metric is a function of a few sums over the entries, so every K
    comes from one prefix sum of the x_lo terms and one suffix sum of the
    x_hi terms: O(trials n) per call, over chunks of trials so that the
    n + 1 sums of a chunk hold about ``_CHUNK_SUMS`` numbers.  Mallows sums |noise|^p.  The
    divergences sum the clipped noise e and, relative to each count c,
    m ln(1 + e/c) (kl) or m ((1 + e/c)^(1 - alpha) - 1) (Renyi), m the
    prior mass, so that a small divergence does not cancel against 1.
    """

    def __init__(self, goal: UtilityGoal, trials: int, rng: np.random.Generator):
        if goal.prior is None:
            raise ValueError(f"metric {goal.metric!r} needs a prior")
        self.goal = goal
        prior = goal.prior
        n = np.asarray(prior, float).size if goal.metric == "mallows" else len(prior.masses)
        # entries along the first axis, so that the sums run over whole rows
        self._draws = rng.laplace(size=(trials, n)).T.copy()
        if goal.metric != "mallows":
            order = rng.permuted(np.tile(np.arange(n), (trials, 1)), axis=1)
            masses = np.asarray(prior.masses)[order.T]
            support = masses > 0
            counts = np.where(support, masses * prior.total, 1.0)
            # u = e/c, clipped where the count reaches zero; a bin the prior
            # leaves empty counts only in the total, as e / total
            self._draws /= counts
            self._floor = -support.astype(float)
            self._count_share = counts / prior.total
            self._masses = masses
            self._mass = float(np.sum(prior.masses))

    def _terms(self, x: float, cols: slice) -> list[np.ndarray]:
        """Each entry's terms of the sums at 1/b = x, for trials ``cols``."""
        goal = self.goal
        draws = self._draws[:, cols]
        if goal.metric == "mallows":
            return [np.abs(draws / x) ** goal.p]
        masses = self._masses[:, cols]
        u = np.maximum(draws / x, self._floor[:, cols])
        log_ratio = np.log1p(u)  # ln(c'/c), -inf at a hole
        shares = u * self._count_share[:, cols]
        if goal.metric == "kl":
            return [shares, masses * log_ratio]
        terms = [shares, masses * np.expm1((1.0 - goal.alpha) * log_ratio)]
        if goal.alpha < 1.0:
            # the mass of the bins that are no hole: zero when all are
            terms.append(masses * (u > -1.0))
        return terms

    def _metric(self, sums: list[np.ndarray]) -> np.ndarray:
        goal = self.goal
        if goal.metric == "mallows":
            (powers,) = sums
            return (powers / self._draws.shape[0]) ** (1.0 / goal.p)
        # with M the prior's mass and c' = c (1 + u), the noisy total over
        # the prior's is M + s, and D = M ln(M + s) - sum m ln(1 + u),
        # I = ln(M + s) + ln(M + sum m ((1 + u)^(1 - alpha) - 1)) / (alpha - 1)
        s, inner, *present = sums
        mass = self._mass
        log_mass = math.log(mass)
        log_total = np.log1p(s / mass)  # less ln M
        if goal.metric == "kl":
            # a hole under the prior makes the sum of the logs -inf
            value = mass * log_total - inner + mass * log_mass
            return np.where(inner > -math.inf, value, math.inf)
        # a hole gives +inf for alpha > 1, where the sum is inf, and so does
        # a zero sum for alpha < 1, where every bin under the prior is a hole
        log_inner = np.log1p(inner / mass)  # less ln M
        finite = np.isfinite(log_inner) & (present[0] > 0.0 if present else True)
        value = log_total + log_inner / (goal.alpha - 1.0) + log_mass * goal.alpha / (goal.alpha - 1.0)
        return np.where(finite, value, math.inf)

    def __call__(self, w: float, x_lo: float, x_hi: float) -> float:
        """The estimate for weight w on x_lo and 1 - w on x_hi."""
        return float(np.mean(self.per_trial(w, x_lo, x_hi)))

    def per_trial(self, w: float, x_lo: float, x_hi: float) -> np.ndarray:
        """Each trial's term of the estimate: its metric averaged over K."""
        n, trials = self._draws.shape
        ks = np.arange(n + 1)
        # Binom(n, w)(K); xlogy gives 0 ln 0 = 0 at w = 0 and 1
        pmf = np.exp(special.gammaln(n + 1) - special.gammaln(ks + 1) - special.gammaln(n - ks + 1)
                     + special.xlogy(ks, w) + special.xlog1py(n - ks, -w))
        out = np.empty(trials)
        step = max(1, _CHUNK_SUMS // (n + 1))
        for start in range(0, trials, step):
            cols = slice(start, start + step)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                sums = []
                for lo, hi in zip(self._terms(x_lo, cols), self._terms(x_hi, cols)):
                    # row K: the first K entries' x_lo terms, the rest's x_hi;
                    # row by row, which is several times faster than np.cumsum
                    total = np.zeros((n + 1, lo.shape[1]))
                    suffix = np.zeros_like(total)
                    for k in range(n):
                        np.add(total[k], lo[k], out=total[k + 1])
                        np.add(suffix[n - k], hi[n - 1 - k], out=suffix[n - 1 - k])
                    total += suffix
                    sums.append(total)
                values = self._metric(sums)
            values[pmf == 0.0] = 0.0  # a zero weight must not meet an infinite value
            out[cols] = pmf @ values
        return out


def expected_metric_empirical(
    combo: LinearCombo | MgfDist,
    goal: UtilityGoal,
    trials: int = 10_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Monte-Carlo estimate of the metric under two-fold noise.

    The noise is drawn through ``mechanisms.sample_noise``, the sampler a
    release uses.  Prior-independent metrics converge to the analytic
    bounds, and mallows at p = 1 to l1, with no prior.  The prior-dependent
    ones read their prior from ``goal``:
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

    if not goal.prior_dependent:
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

