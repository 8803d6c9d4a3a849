"""Utility-driven search over second-fold distributions.

Given a privacy budget, a query sensitivity and a utility goal, find the
law of the reciprocal scale X = 1/b that maximizes utility subject to the
exact epsilon constraint.

The constraint is E g(X) = 0 with g(x) = x (1 - e^(eps - sensitivity x)):
g < 0 below x0 = eps/sensitivity and g > 0 above it.  Every calibrated
law here has one or two atoms.

For usefulness, l1 and l2 the objective is linear in the law of X too,
so the optimum over every law has at most two atoms, and a 1-D dual over
the multiplier of the constraint finds it (``two_atom_optimum``).

The prior-dependent metrics (mallows, kl, renyi) are estimated by Monte
Carlo on a stream fixed by the seed, the same draws for every law.  For
them a 2-D Nelder-Mead searches the two-atom laws with atoms
x0 e^-|s| <= x0 <= x0 e^|u|, weighted so that E g(X) = 0: every
candidate meets epsilon by construction.  The search evaluates the
Laplace law first, then starts from the exact l1 and l2 laws, fixed
offsets and seeded random offsets, and keeps the best law seen.  A law
that beats Laplace only on that stream is overfitted to it, so the
winner must also beat Laplace on a fresh, longer stream, or Laplace is
returned.  The result is never worse than Laplace on the seed's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize as sp_optimize

from .distributions import (
    Bernoulli,
    Degenerate,
    DomainError,
    LinearCombo,
    format_combo,
    parse_combo,
)
from .mechanisms import (
    staircase_l1,
    staircase_l2,
    staircase_usefulness,
)
from .privacy import PrivacySpec, epsilon_of_combo
from .utility import (
    LINEAR_METRICS,
    NORM_POWERS,
    UtilityGoal,
    expected_metric_empirical,
)


class InfeasibleSpecError(RuntimeError):
    """The epsilon target could not be met."""


@dataclass(frozen=True)
class SearchSpaceSpec:
    """Budgets for the two-atom search over mallows/kl/renyi.

    ``restarts`` Nelder-Mead starts of at most ``max_evals`` evaluations
    each, every evaluation a Monte-Carlo estimate over ``mc_trials``
    trials.  Usefulness, l1 and l2 are solved exactly and ignore them.
    """

    restarts: int = 12
    max_evals: int = 300
    mc_trials: int = 4000

    def __post_init__(self):
        if self.restarts < 1 or self.max_evals < 1 or self.mc_trials < 1:
            raise ValueError("restarts, max_evals and mc_trials must be >= 1")


@dataclass(frozen=True)
class SolverDiagnostics:
    evaluations: int
    constraint_residual: float
    winning_restart: int


@dataclass(frozen=True)
class CalibratedMechanism:
    """Optimizer output: the chosen combination plus audit numbers."""

    combo: LinearCombo
    achieved_epsilon: float
    target_epsilon: float
    predicted_utility: float
    baseline_laplace_utility: float
    staircase_utility: float | None
    diagnostics: SolverDiagnostics

    def to_text(self) -> str:
        lines = [
            f"target_epsilon = {self.target_epsilon!r}",
            f"achieved_epsilon = {self.achieved_epsilon!r}",
            f"predicted_utility = {self.predicted_utility!r}",
            f"baseline_laplace_utility = {self.baseline_laplace_utility!r}",
            f"staircase_utility = {self.staircase_utility!r}",
            f"evaluations = {self.diagnostics.evaluations}",
            f"constraint_residual = {self.diagnostics.constraint_residual!r}",
            f"winning_restart = {self.diagnostics.winning_restart}",
            "combo:",
        ]
        lines += ["  " + line for line in format_combo(self.combo).splitlines()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CalibratedMechanism":
        """Parse a record; keys it does not know (such as the
        ``boundary_hit`` of older records) are ignored."""
        meta: dict[str, str] = {}
        combo_lines: list[str] = []
        in_combo = False
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line == "combo:":
                in_combo = True
                continue
            if in_combo:
                combo_lines.append(line)
            else:
                key, _, val = line.partition("=")
                meta[key.strip()] = val.strip()
        stair = meta.get("staircase_utility", "None")
        return cls(
            combo=parse_combo("\n".join(combo_lines)),
            achieved_epsilon=float(meta["achieved_epsilon"]),
            target_epsilon=float(meta["target_epsilon"]),
            predicted_utility=float(meta["predicted_utility"]),
            baseline_laplace_utility=float(meta["baseline_laplace_utility"]),
            staircase_utility=None if stair == "None" else float(stair),
            diagnostics=SolverDiagnostics(
                evaluations=int(meta.get("evaluations", 0)),
                constraint_residual=float(meta.get("constraint_residual", 0.0)),
                winning_restart=int(meta.get("winning_restart", 0)),
            ),
        )


def laplace_seed(privacy: PrivacySpec) -> LinearCombo:
    """The point mass at epsilon/sensitivity: exactly the Laplace mechanism."""
    return LinearCombo(((1.0, Degenerate(privacy.epsilon / privacy.sensitivity)),))


def _rescale(combo: LinearCombo, c: float) -> LinearCombo:
    return LinearCombo(tuple((a * c, d) for a, d in combo.terms))


def calibrate_scale(combo: LinearCombo, privacy: PrivacySpec) -> LinearCombo:
    """Rescale all coefficients so the achieved epsilon hits the target.

    The epsilon of c * combo is strictly increasing in c and covers
    (0, inf), so a scalar root always exists.  A helper for callers that
    rescale a law of their own: ``optimize`` builds laws that meet the
    target by construction and does not call it.
    """

    def resid(log_c: float) -> float:
        try:
            return epsilon_of_combo(_rescale(combo, math.exp(log_c)), privacy.sensitivity) - privacy.epsilon
        except (DomainError, OverflowError):
            return math.inf

    r0 = resid(0.0)
    if r0 == 0.0:
        return combo
    lo = hi = 0.0
    step = 0.7
    if r0 > 0:
        while resid(lo) > 0:
            lo -= step
            if lo < -60:
                raise InfeasibleSpecError("scale calibration failed to bracket the target")
    else:
        while resid(hi) < 0:
            hi += step
            if hi > 60:
                raise InfeasibleSpecError("scale calibration failed to bracket the target")
    log_c = sp_optimize.brentq(resid, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    return _rescale(combo, math.exp(log_c))


def _analytic_utility(combo: LinearCombo, goal: UtilityGoal, eval_seed: int, mc_trials: int) -> float:
    """The metric of a one-term ``Degenerate`` or ``Bernoulli`` law: exact
    from its atoms for usefulness, l1 and l2, else a Monte-Carlo estimate
    on the ``eval_seed`` stream."""
    if goal.metric in LINEAR_METRICS:
        f, _, u, _ = _payoff(goal)
        return u(_mean_payoff(combo, f))
    # a point mass is drawn as a two-atom law with both atoms on it, so that
    # it uses the stream like the search's candidates: all are compared on
    # the same draws
    (coeff, point), = combo.terms
    if isinstance(point, Degenerate):
        combo = LinearCombo(((coeff, Bernoulli(1.0, point.value, point.value)),))
    return expected_metric_empirical(
        combo, goal, trials=mc_trials, rng=np.random.default_rng(eval_seed)
    )


def _mean_payoff(combo: LinearCombo, f) -> float:
    """E f(X) over the atoms a x of a one-term Degenerate or Bernoulli law."""
    (a, law), = combo.terms
    if isinstance(law, Degenerate):
        return float(f(a * law.value))
    return law.p * float(f(a * law.x0)) + (1.0 - law.p) * float(f(a * law.x1))


_ATOMS_PER_SIDE = 2001
_SPAN = 1e8  # each side's grid spans 8 decades beyond its natural scale


def _payoff(goal: UtilityGoal):
    """(f, ln f', u, knee) with the metric equal to u(E f(X)) and best
    where E f(X) is largest: usefulness is E[1 - e^(-gamma X)], and the
    l1 and l2 norms (E|noise|^p)^(1/p) are (p! E[X^-p])^(1/p).  ln f' stays
    in log space, as f' underflows for usefulness once gamma X passes
    about 745.  f flattens past x = knee: 1/gamma for usefulness, 0 (no
    knee) for the norms."""
    if goal.metric == "usefulness":
        gamma = goal.gamma
        return (lambda x: -np.expm1(-gamma * x), lambda x: math.log(gamma) - gamma * x,
                lambda v: v, 1.0 / gamma)
    p = NORM_POWERS[goal.metric]
    return (lambda x: -1.0 / x ** p, lambda x: math.log(p) - (p + 1) * math.log(x),
            lambda v: (math.factorial(p) * -v) ** (1.0 / p), 0.0)


def _constraint(privacy: PrivacySpec, x):
    """g(x) of the epsilon constraint E g(X) <= 0."""
    return -x * np.expm1(privacy.epsilon - privacy.sensitivity * x)


def two_atom_optimum(privacy: PrivacySpec, goal: UtilityGoal) -> tuple[LinearCombo, int]:
    """The law of X that is best for a linear metric over *every* law.

    Maximizes E f(X) subject to E g(X) <= 0, g(x) = x (1 - e^(eps - dq x)),
    which is the epsilon constraint.  g < 0 below x0 = eps/dq and g > 0
    above it.  For a multiplier lam >= 0 the dual is the larger of
    H_lo(lam) = max over x <= x0 of f - lam g (increasing in lam) and
    H_hi(lam), the same over x >= x0 (decreasing).  Its minimum is where
    the two cross; each side's maximizer there is an atom, weighted so
    that E g(X) = 0.  Each side's maximum is taken on a log-spaced grid
    and refined by a bounded scalar search around the best grid point.

    Returns the law, ``Degenerate(x0)`` (exactly Laplace) when the line
    tangent to (g, f) at x0 already supports the curve or no two-atom law
    beats it, else a ``Bernoulli``, and the number of dual evaluations.
    Usefulness, l1 and l2 only.
    """
    if goal.metric not in LINEAR_METRICS:
        raise ValueError(f"{goal.metric} is not linear in the law of 1/b")
    eps, dq = privacy.epsilon, privacy.sensitivity
    x0 = eps / dq
    f, log_fprime, _, knee = _payoff(goal)
    sides = (np.geomspace(x0 / _SPAN, x0, _ATOMS_PER_SIDE),
             np.geomspace(x0, max(x0, knee) * _SPAN, _ATOMS_PER_SIDE))
    calls = [0]

    def peak(xs, lam):
        """(max, argmax) of f - lam g over one side."""
        h = f(xs) - lam * _constraint(privacy, xs)
        i = int(np.argmax(h))
        best = (float(h[i]), float(xs[i]))
        lo, hi = math.log(xs[max(i - 1, 0)]), math.log(xs[min(i + 1, xs.size - 1)])
        res = sp_optimize.minimize_scalar(
            lambda t: float(lam * _constraint(privacy, math.exp(t)) - f(math.exp(t))),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-12},
        )
        if -res.fun > best[0]:
            best = (-float(res.fun), math.exp(res.x))
        return best

    def dual(log_lam):
        calls[0] += 1
        lam = math.exp(log_lam)
        return peak(sides[0], lam), peak(sides[1], lam)

    def gap(log_lam):
        lo, hi = dual(log_lam)
        return hi[0] - lo[0]

    laplace = laplace_seed(privacy)
    f0 = float(f(x0))
    tol = 4.0 * np.finfo(float).eps * (1.0 + abs(f0))
    # log slope of f against g at x0, where dg/dx = eps
    t0 = log_fprime(x0) - math.log(eps)
    below, above = dual(t0)
    if max(below[0], above[0]) <= f0 + tol:
        return laplace, calls[0]
    # bracket the crossing by unit steps in log lam, then solve it
    d = above[0] - below[0]
    step = 1.0 if d > 0 else -1.0
    a = b = t0
    while d != 0.0 and (d > 0) == (step > 0):
        a, b = b, b + step
        if abs(b - t0) > 200.0:
            raise InfeasibleSpecError("the dual multiplier could not be bracketed")
        d = gap(b)
    root = b if d == 0.0 else sp_optimize.brentq(
        gap, min(a, b), max(a, b), xtol=1e-13, rtol=4.0 * np.finfo(float).eps
    )
    (_, x_lo), (_, x_hi) = dual(root)
    law = _two_atom_law(privacy, x_lo, x_hi)
    if _mean_payoff(law, f) <= f0 + tol:
        return laplace, calls[0]
    return law, calls[0]


# fixed starting offsets (s, u) of the two-atom search, after the exact
# l1 and l2 laws; later starts are drawn uniformly from [0, 4)^2
_FIXED_OFFSETS = ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (2.0, 2.0))
_SIMPLEX_STEP = 0.25
_HOLDOUT_TRIALS = 10  # length of the fresh stream, in multiples of mc_trials
_UNUSABLE = 1e300  # finite, so that Nelder-Mead never subtracts inf from inf
_EPSILON_TOL = 1e-9  # how far a returned law's epsilon may be off the target


def _two_atom_law(privacy: PrivacySpec, x_lo: float, x_hi: float) -> LinearCombo:
    """The law on x_lo and x_hi with E g(X) = 0, whose epsilon is the
    target by construction; the Laplace law unless g(x_lo) < 0 < g(x_hi)."""
    g_lo, g_hi = float(_constraint(privacy, x_lo)), float(_constraint(privacy, x_hi))
    if not g_lo < 0.0 < g_hi:
        return laplace_seed(privacy)
    return LinearCombo(((1.0, Bernoulli(g_hi / (g_hi - g_lo), x_lo, x_hi)),))


def optimize(
    spec: SearchSpaceSpec,
    privacy: PrivacySpec,
    goal: UtilityGoal,
    seed: int = 0,
) -> CalibratedMechanism:
    """Calibrate the law of 1/b for one (budget, sensitivity, metric).

    Usefulness, l1 and l2 get the best law over every law of 1/b, from
    ``two_atom_optimum``.  Mallows, KL and Renyi get the best two-atom
    law the search finds on the Monte-Carlo stream fixed by ``seed``;
    the Laplace law is its first candidate.

    Every law returned meets epsilon by construction, with no rescaling.
    Deterministic for fixed (spec, privacy, goal, seed).  Raises
    ``InfeasibleSpecError`` if the dual multiplier cannot be bracketed or
    the law's epsilon is off the target by more than 1e-9.
    """
    master = int(seed)
    eval_seed = master ^ 0x5EED
    if goal.metric in LINEAR_METRICS:
        law, calls = two_atom_optimum(privacy, goal)
        return _calibrated(law, calls, 0, spec, privacy, goal, eval_seed)

    sign = -1.0 if goal.higher_is_better else 1.0
    laplace = laplace_seed(privacy)
    best = [sign * _analytic_utility(laplace, goal, eval_seed, spec.mc_trials), laplace, 0]
    evals = [1]
    x0 = privacy.epsilon / privacy.sensitivity

    def objective(x, restart):
        evals[0] += 1
        try:
            law = _two_atom_law(privacy, x0 * math.exp(-abs(x[0])), x0 * math.exp(abs(x[1])))
            value = sign * _analytic_utility(law, goal, eval_seed, spec.mc_trials)
        except (ValueError, OverflowError):
            return _UNUSABLE
        if value < best[0]:
            best[:] = [value, law, restart]
        return value if math.isfinite(value) else _UNUSABLE

    starts = []
    for metric in NORM_POWERS:
        exact = two_atom_optimum(privacy, UtilityGoal(metric))[0].terms[0][1]
        if isinstance(exact, Bernoulli):
            starts.append((math.log(x0 / exact.x0), math.log(exact.x1 / x0)))
    starts += _FIXED_OFFSETS
    rng = np.random.default_rng([master & (2**63 - 1), 0xD15C])
    while len(starts) < spec.restarts:
        starts.append(tuple(rng.uniform(0.0, 4.0, 2)))
    for restart, start in enumerate(starts[: spec.restarts], start=1):
        x = np.asarray(start, float)
        simplex = np.array([x, x + (_SIMPLEX_STEP, 0.0), x + (0.0, _SIMPLEX_STEP)])
        sp_optimize.minimize(
            objective, x, args=(restart,), method="Nelder-Mead",
            options={"maxfev": spec.max_evals, "initial_simplex": simplex,
                     "xatol": 1e-6, "fatol": 1e-12},
        )
    _, law, restart = best
    # keep a law that beat Laplace on the search's stream only if it also
    # beats Laplace on a fresh one
    fresh, trials = eval_seed + 1, _HOLDOUT_TRIALS * spec.mc_trials
    if restart and not (sign * _analytic_utility(law, goal, fresh, trials)
                        < sign * _analytic_utility(laplace, goal, fresh, trials)):
        law, restart = laplace, 0
    return _calibrated(law, evals[0], restart, spec, privacy, goal, eval_seed)


def _calibrated(combo, evaluations, restart, spec, privacy, goal, eval_seed):
    """The result record for the chosen combination, with its baselines.
    Fails closed when the combination misses the epsilon target."""
    achieved = epsilon_of_combo(combo, privacy.sensitivity)
    if not abs(achieved - privacy.epsilon) <= _EPSILON_TOL:
        raise InfeasibleSpecError(f"epsilon {achieved!r} misses the target {privacy.epsilon!r}")
    return CalibratedMechanism(
        combo=combo,
        achieved_epsilon=achieved,
        target_epsilon=privacy.epsilon,
        predicted_utility=_analytic_utility(combo, goal, eval_seed, spec.mc_trials),
        baseline_laplace_utility=baseline_laplace(privacy, goal, eval_seed, spec.mc_trials),
        staircase_utility=baseline_staircase(privacy, goal),
        diagnostics=SolverDiagnostics(
            evaluations=evaluations,
            constraint_residual=abs(achieved - privacy.epsilon),
            winning_restart=restart,
        ),
    )


def baseline_laplace(
    privacy: PrivacySpec, goal: UtilityGoal, eval_seed: int = 0, mc_trials: int = 4000
) -> float:
    """The Laplace mechanism's metric: exact for usefulness, l1 and l2,
    else a Monte-Carlo estimate on the ``eval_seed`` stream."""
    return _analytic_utility(laplace_seed(privacy), goal, eval_seed, mc_trials)


def baseline_staircase(privacy: PrivacySpec, goal: UtilityGoal) -> float | None:
    """The staircase mechanism's usefulness, l1 or l2; None for other metrics."""
    if goal.metric == "usefulness":
        return staircase_usefulness(privacy.epsilon, privacy.sensitivity, goal.gamma)
    if goal.metric == "l1":
        return staircase_l1(privacy.epsilon, privacy.sensitivity)
    if goal.metric == "l2":
        return staircase_l2(privacy.epsilon, privacy.sensitivity)
    return None
