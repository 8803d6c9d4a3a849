"""Utility-driven search over second-fold distributions.

Given a privacy budget, a query sensitivity and a utility goal, find the
law of the reciprocal scale X = 1/b that maximizes utility subject to the
exact epsilon constraint.

The constraint is E g(X) = 0 with g(x) = x (1 - e^(eps - sensitivity x)):
g < 0 below x0 = eps/sensitivity and g > 0 above it.  Every calibrated
law here has one or two atoms.

For usefulness and the noise norms (l1, l2, and mallows at p = 1, which
is l1 for any prior) the objective is linear in the law of X too, so the
optimum over every law has at most two atoms, and a 1-D dual over the
multiplier of the constraint finds it (``two_atom_optimum``): each side's
peak comes from a log-spaced table refined by Brent's method, and the
multiplier from Newton steps whose slope the two atoms give.  Brent's
method is ``_brentq``, an in-module port of scipy's ``brentq`` that gives
its roots to the bit: this path, and ``calibrate_scale``, run on numpy
alone, and a process that calls only them never imports scipy, whose
``optimize`` module loads on first use by the search below.

The other metrics (mallows at p != 1, kl, renyi) have no known optimal
law.  For them a 2-D Nelder-Mead searches the two-atom laws with atoms
x0 e^-|s| <= x0 <= x0 e^|u|, weighted so that E g(X) = 0: every
candidate meets epsilon by construction.  Its objective is
``utility.TwoAtomMetric``, drawn once per call from the seed: unbiased,
deterministic and smooth in the atoms and the weight.  One run starts
from the better of the exact l1 and l2 laws and is restarted from its own
end point while that improves.  The search returns its law if it beats
the Laplace law on the same draws by more than two standard errors of
the paired difference, else the Laplace law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._lazy import lazy_import
from .distributions import (
    Bernoulli,
    Degenerate,
    DomainError,
    LinearCombo,
    format_combo,
    parse_combo,
)
from .mechanisms import staircase_norm, staircase_usefulness
from .privacy import PrivacySpec, epsilon_of_combo
from .utility import NORM_POWERS, TwoAtomMetric, UtilityGoal, norm_power

sp_optimize = lazy_import("scipy.optimize")  # the Nelder-Mead search only


class InfeasibleSpecError(RuntimeError):
    """The epsilon target could not be met."""


@dataclass(frozen=True)
class SearchSpaceSpec:
    """Budgets for the two-atom search over mallows/kl/renyi.

    Nelder-Mead runs from the better of the exact l1 and l2 laws, then is
    restarted from its own end point, at most ``restarts`` runs in all and
    stopping at the first that ends no better; each run takes at most
    ``max_evals`` evaluations of one estimate over ``mc_trials`` trials
    drawn once per call.  Usefulness, l1, l2 and mallows at p = 1 are
    solved exactly and ignore them.
    """

    restarts: int = 6
    max_evals: int = 300
    mc_trials: int = 4000

    def __post_init__(self):
        if self.restarts < 1 or self.max_evals < 1 or self.mc_trials < 1:
            raise ValueError("restarts, max_evals and mc_trials must be >= 1")


@dataclass(frozen=True)
class SolverDiagnostics:
    """``winning_restart`` is the number of the last Nelder-Mead run that
    improved the two-atom search's law, else 0: the start law, the Laplace
    law, or a metric solved exactly."""

    evaluations: int
    winning_restart: int


# the record's float keys, in the order written; the last may be None
_RECORD_FLOATS = ("target_epsilon", "achieved_epsilon", "predicted_utility",
                  "baseline_laplace_utility", "staircase_utility")


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
        lines = [f"{key} = {getattr(self, key)!r}" for key in _RECORD_FLOATS]
        lines += [f"{f.name} = {getattr(self.diagnostics, f.name)}" for f in fields(SolverDiagnostics)]
        lines += ["combo:"] + ["  " + line for line in format_combo(self.combo).splitlines()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CalibratedMechanism":
        """Parse a record.  An absent staircase baseline reads None, absent
        diagnostics read 0, and any other absent float raises ``ValueError``;
        unknown keys (``boundary_hit``, ``constraint_residual``) are ignored."""
        lines = [line.strip() for line in text.splitlines()]
        cut = lines.index("combo:") if "combo:" in lines else len(lines)
        meta = {key.strip(): val.strip()
                for key, _, val in (line.partition("=") for line in lines[:cut] if line)}
        *required, stair = _RECORD_FLOATS
        if missing := [key for key in required if key not in meta]:
            raise ValueError(f"the record has no {', '.join(missing)}")
        values = {key: float(meta[key]) for key in required}
        values[stair] = None if meta.get(stair, "None") == "None" else float(meta[stair])
        diagnostics = {f.name: int(meta.get(f.name, 0)) for f in fields(SolverDiagnostics)}
        return cls(combo=parse_combo("\n".join(lines[cut + 1:])),
                   diagnostics=SolverDiagnostics(**diagnostics), **values)


def laplace_seed(privacy: PrivacySpec) -> LinearCombo:
    """The point mass at epsilon/sensitivity: exactly the Laplace mechanism."""
    return LinearCombo(((1.0, Degenerate(privacy.epsilon / privacy.sensitivity)),))


def _rescale(combo: LinearCombo, c: float) -> LinearCombo:
    return LinearCombo(tuple((a * c, d) for a, d in combo.terms))


def _brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4.0 * np.finfo(float).eps,
            maxiter: int = 100) -> float:
    """A root of f between a and b, where f changes sign: scipy's
    ``optimize.brentq`` (the C loop of its ``Zeros/brentq.c``) step for
    step, so each root is scipy's to the bit, without importing scipy.
    Raises ``ValueError`` on a nan value or a bracket without a sign
    change, and ``RuntimeError`` when maxiter iterations do not converge.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect, unless a good short step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or nan, which bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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
    log_c = _brentq(resid, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    return _rescale(combo, math.exp(log_c))


def _analytic_utility(combo: LinearCombo, goal: UtilityGoal, estimate: TwoAtomMetric | None) -> float:
    """The metric of a one-term ``Degenerate`` or ``Bernoulli`` law: exact
    from its atoms for usefulness and the noise norms, else ``estimate``
    at its atoms."""
    payoff = _payoff(goal)
    if payoff is None:
        return estimate(*_atoms(combo))
    f, _, u, _ = payoff
    return u(_mean_payoff(combo, f))


def _atoms(combo: LinearCombo) -> tuple[float, float, float]:
    """(w, x_lo, x_hi) of a one-term Degenerate or Bernoulli law: the atoms
    a x, with weight w on x_lo."""
    (a, law), = combo.terms
    if isinstance(law, Degenerate):
        return 1.0, a * law.value, a * law.value
    return law.p, a * law.x0, a * law.x1


def _mean_payoff(combo: LinearCombo, f) -> float:
    """E f(X) over the atoms of a one-term Degenerate or Bernoulli law."""
    w, x_lo, x_hi = _atoms(combo)
    return w * float(f(x_lo)) + (1.0 - w) * float(f(x_hi))


_ATOMS_PER_SIDE = 2001
_SPAN = 1e8  # each side's grid spans at least 8 decades beyond its natural scale
# ln(x/x0) on the lower table: 8 decades up to exactly 0
_UNIT_LOG_GRID = np.linspace(-math.log(_SPAN), 0.0, _ATOMS_PER_SIDE)
_FLOAT_EPS = float(np.finfo(float).eps)
_LEAST_FLOAT = math.ulp(0.0)


def _payoff(goal: UtilityGoal):
    """(f, ln f', u, knee) with the metric equal to u(E f(X)) and best
    where E f(X) is largest, or None if no such f exists: usefulness is
    E[1 - e^(-gamma X)], and the noise norms (E|noise|^p)^(1/p) are
    (p! E[X^-p])^(1/p).  ln f' stays in log space, as f' underflows for
    usefulness once gamma X passes about 745.  f flattens past x = knee:
    1/gamma for usefulness, 0 (no knee) for the norms."""
    if goal.metric == "usefulness":
        gamma = goal.gamma
        return (lambda x: -np.expm1(-gamma * x), lambda x: math.log(gamma) - gamma * x,
                lambda v: v, 1.0 / gamma)
    p = norm_power(goal)
    if p is None:
        return None
    return (lambda x: -1.0 / x ** p, lambda x: math.log(p) - (p + 1) * math.log(x),
            lambda v: (math.factorial(p) * -v) ** (1.0 / p), 0.0)


def _reach(goal: UtilityGoal, eps: float) -> float:
    """How far the upper grid runs past max(x0, knee): _SPAN, or for a
    noise norm 8 e^(eps/(p+1)) / eps if further, as its high atom sits near
    c x0 e^(eps/(p+1)) / eps (c = 0.74 for l1, 1.39 for l2, eps 20 to 700)."""
    p = norm_power(goal)
    return _SPAN if p is None else max(_SPAN, 8.0 * math.exp(eps / (p + 1)) / eps)


def _constraint(privacy: PrivacySpec, x):
    """g(x) of the epsilon constraint E g(X) <= 0."""
    return -x * np.expm1(privacy.epsilon - privacy.sensitivity * x)


# bracket reach in ln lam.  Downward lam = e^(ln lam) underflows to 0 past
# -745, harmlessly, as the peaks compare slopes in log space; upward it
# overflows past 709.78, and two_atom_optimum raises InfeasibleSpecError
_LOG_LAM_REACH = 1500.0
_LOG_X_TOL = 1e-12  # width in ln x to which a peak is refined
_LOG_LAM_TOL = 1e-13  # Newton step or bracket width in ln lam at which the multiplier is solved


def _peak(privacy: PrivacySpec, f, log_fprime, side, log_lam: float) -> tuple[float, float]:
    """(max, argmax) of h = f - lam g, lam = e^log_lam, over one side's
    table (xs, ln xs, f(xs), g(xs)): the best grid point, or the root of
    dh/dx between its two neighbours if h is higher there.  The root is
    found by Brent's method in ln x, to _LOG_X_TOL, on the closed form of
    dh/dx; where dh/dx does not fall through 0 between the neighbours, the
    best grid point is the peak.  Brent's method is ``_brentq``, scipy's
    ``brentq`` ported step for step, so that the linear metrics need no
    scipy import (about 0.5 s) and keep scipy's roots to the bit."""
    xs, ts, fs, gs = side
    lam = math.exp(log_lam)
    h = fs - lam * gs
    i = int(h.argmax())
    best = float(h[i]), float(xs[i])
    eps, dq = privacy.epsilon, privacy.sensitivity

    def rise(t):
        # ln f' - ln(lam g'), > 0 where h rises; in log space, as f' and lam
        # may underflow.  f' > 0 always, so h rises where g' <= 0: such a
        # slope counts as the least positive float
        x = math.exp(t)
        z = eps - dq * x
        slope = dq * x * math.exp(z) - math.expm1(z)  # g'(x)
        return log_fprime(x) - log_lam - math.log(max(slope, _LEAST_FLOAT))

    lo, hi = float(ts[max(i - 1, 0)]), float(ts[min(i + 1, xs.size - 1)])
    if not rise(lo) > 0.0 > rise(hi):
        return best
    x = math.exp(_brentq(rise, lo, hi, xtol=_LOG_X_TOL))
    value = float(f(x) - lam * _constraint(privacy, x))
    return (value, x) if value > best[0] else best


def two_atom_optimum(privacy: PrivacySpec, goal: UtilityGoal) -> tuple[LinearCombo, int]:
    """The law of X that is best for a linear metric over *every* law.

    Maximizes E f(X) subject to E g(X) <= 0, g(x) = x (1 - e^(eps - dq x)),
    which is the epsilon constraint.  g < 0 below x0 = eps/dq and g > 0
    above it.  For a multiplier lam >= 0 the dual is the larger of
    H_lo(lam) = max over x <= x0 of h = f - lam g (increasing in lam) and
    H_hi(lam), the same over x >= x0 (decreasing).  Its minimum is where
    the two cross; each side's maximizer there is an atom, weighted so
    that E g(X) = 0.

    Each side's maximum is taken on a log-spaced table of f and g, built
    once per call from one unit grid in ln x with x0 exactly at the shared
    end of the two tables, and refined by Brent's method on the closed form
    of dh/dx (``_peak``).  For the norms at large epsilon the upper table
    reaches further (``_reach``), at the same points per decade.

    The crossing is solved in s = ln lam.  By the envelope theorem
    dH/dlam = -g(x*), so the gap H_hi - H_lo falls strictly in lam with
    slope g(x_lo) - g(x_hi), read off the two atoms; Newton's step in lam
    goes to the slope of the chord through the atoms' points (g, f), and
    is taken in s.  Until the gap has been seen on both sides of 0 a step
    is capped at a doubling step from the tangent at x0; after that, a
    step that leaves the bracket is replaced by bisection.  The solve
    stops once a step is under 1e-13 and keeps the better of the laws on
    the atoms at the bracket's two ends: where a side's maximum jumps
    between two peaks the gap has no root.

    Returns the law, ``Degenerate(x0)`` (exactly Laplace) when the line
    tangent to (g, f) at x0 already supports the curve or no two-atom law
    beats it, else a ``Bernoulli``, and the number of dual evaluations.
    Usefulness, l1, l2 and mallows at p = 1 only, else ``ValueError``.
    Raises ``InfeasibleSpecError`` when g overflows on the grid (epsilon
    near 710 and above) or the multiplier cannot be bracketed.
    """
    payoff = _payoff(goal)
    if payoff is None:
        raise ValueError(f"{goal.metric} is not linear in the law of 1/b")
    eps, dq = privacy.epsilon, privacy.sensitivity
    x0 = eps / dq
    f, log_fprime, _, knee = payoff
    reach = _reach(goal, eps)  # n_hi keeps the lower grid's points per decade
    n_hi = 1 + round((_ATOMS_PER_SIDE - 1) * math.log(reach) / math.log(_SPAN))
    log_x0 = math.log(x0)
    sides = []
    with np.errstate(all="ignore"):  # a non-finite table raises below
        for ts in (_UNIT_LOG_GRID + log_x0,
                   np.linspace(log_x0, math.log(max(x0, knee)) + math.log(reach), n_hi)):
            xs = np.exp(ts)
            xs[0 if sides else -1] = x0  # the shared end, so that h(x0) = f(x0) on both
            sides.append((xs, ts, f(xs), _constraint(privacy, xs)))
    if not all(np.isfinite(xs).all() and np.isfinite(fs).all() for xs, _, fs, _ in sides):
        raise InfeasibleSpecError(
            f"epsilon/sensitivity = {eps:g}/{dq:g} = {x0:g} is too "
            f"{'large' if x0 > 1.0 else 'small'}: the grid around it leaves the float range")
    if not all(np.isfinite(gs).all() for *_, gs in sides):
        raise InfeasibleSpecError(f"epsilon {eps!r} is too large at sensitivity {dq!r}: "
                                  "x e^(epsilon - sensitivity x) overflows on the grid")
    calls = 0

    def dual(log_lam):
        """((H_lo, x_lo), (H_hi, x_hi)) at lam = e^log_lam."""
        nonlocal calls
        calls += 1
        return [_peak(privacy, f, log_fprime, side, log_lam) for side in sides]

    laplace = laplace_seed(privacy)
    # lam g at inf rightly scores -inf; lam or f overflowing leaves the float range
    try:
        with np.errstate(over="ignore"):
            f0 = float(f(x0))
            tol = 4.0 * _FLOAT_EPS * (1.0 + abs(f0))
            # log slope of f against g at x0, where dg/dx = eps
            s = s0 = log_fprime(x0) - math.log(eps)
            (below, x_lo), (above, x_hi) = dual(s)
            if max(below, above) <= f0 + tol:
                return laplace, calls
            # the gap H_hi - H_lo falls in s.  ends[gap > 0] keeps the last s
            # on each side of its root, with that s's atoms.  Each step is
            # Newton's: capped at a doubling step until both sides are seen,
            # then replaced by bisection where it leaves the bracket
            step = 1.0 if above > below else -1.0
            ends = {}
            while True:
                d = above - below
                ends[d > 0.0] = s, x_lo, x_hi
                if d == 0.0:
                    break
                # Newton's step in lam, lam' = lam + gap / (g(x_hi) - g(x_lo)),
                # taken in s: where the gap grows like e^s, a step in s
                # would move s by about 1 at a time
                scale = math.exp(s) * float(_constraint(privacy, x_hi) - _constraint(privacy, x_lo))
                ratio = d / scale if 0.0 < scale < math.inf else math.inf
                newton = math.log1p(ratio) if ratio > -1.0 else math.inf
                if abs(newton) < max(_LOG_LAM_TOL, math.ulp(s)):
                    break
                if len(ends) == 1:
                    s += newton if abs(newton) <= abs(step) else step
                    step *= 2.0
                    if abs(s - s0) > _LOG_LAM_REACH:
                        raise InfeasibleSpecError("the dual multiplier could not be bracketed")
                else:
                    lo, hi = sorted((ends[True][0], ends[False][0]))
                    if lo < s + newton < hi:
                        s += newton
                    elif hi - lo > _LOG_LAM_TOL and lo < 0.5 * (lo + hi) < hi:
                        s = 0.5 * (lo + hi)
                    else:
                        break
                (below, x_lo), (above, x_hi) = dual(s)
            # where a side's maximum jumps between two peaks the gap has no
            # root, and each end's atoms make a law that meets epsilon
            law = max((_two_atom_law(privacy, x_lo, x_hi) for _, x_lo, x_hi in ends.values()),
                      key=lambda law: _mean_payoff(law, f))
            worse = _mean_payoff(law, f) <= f0 + tol
    except (OverflowError, ZeroDivisionError):
        raise InfeasibleSpecError(
            f"epsilon {eps!r} at sensitivity {dq!r} takes the dual beyond the float range"
        ) from None
    return (laplace if worse else law), calls


_SIMPLEX_STEP = 0.25
_SIGNIFICANCE = 2.0  # standard errors by which a searched law must beat Laplace
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

    Usefulness, l1, l2 and mallows at p = 1 (the l1 law, for any prior)
    get the best law over every law of 1/b, from ``two_atom_optimum``.
    Other mallows, KL and Renyi goals get the law the two-atom search
    finds on the estimate drawn from ``seed`` (``SearchSpaceSpec``), or the
    Laplace law if neither exact law has two atoms or the found law does
    not beat it there by more than two paired standard errors.

    Every law returned meets epsilon by construction, with no rescaling.
    Deterministic for fixed (spec, privacy, goal, seed).  Raises
    ``InfeasibleSpecError`` if the dual multiplier cannot be bracketed or
    the law's epsilon is off the target by more than 1e-9.
    """
    if _payoff(goal) is not None:
        law, calls = two_atom_optimum(privacy, goal)
        return _calibrated(law, calls, 0, privacy, goal, None)

    estimate = TwoAtomMetric(goal, spec.mc_trials, np.random.default_rng(int(seed) ^ 0x5EED))
    sign = -1.0 if goal.higher_is_better else 1.0
    x0 = privacy.epsilon / privacy.sensitivity
    evals = [1]

    def law_at(x):
        return _two_atom_law(privacy, x0 * math.exp(-abs(x[0])), x0 * math.exp(abs(x[1])))

    def objective(x):
        evals[0] += 1
        try:
            value = sign * estimate(*_atoms(law_at(x)))
        except (ValueError, OverflowError):
            return _UNUSABLE
        return value if math.isfinite(value) else _UNUSABLE

    laplace = laplace_seed(privacy)
    starts = []
    for metric in NORM_POWERS:
        exact = two_atom_optimum(privacy, UtilityGoal(metric))[0].terms[0][1]
        if isinstance(exact, Bernoulli):
            x = np.array([math.log(x0 / exact.x0), math.log(exact.x1 / x0)])
            starts.append((objective(x), x))
    if not starts:
        return _calibrated(laplace, evals[0], 0, privacy, goal, estimate)
    best, x = min(starts, key=lambda start: start[0])
    restart = 0
    for run in range(1, spec.restarts + 1):
        simplex = np.array([x, x + (_SIMPLEX_STEP, 0.0), x + (0.0, _SIMPLEX_STEP)])
        result = sp_optimize.minimize(
            objective, x, method="Nelder-Mead",
            options={"maxfev": spec.max_evals, "initial_simplex": simplex,
                     "xatol": 1e-6, "fatol": 1e-12},
        )
        if not result.fun < best:
            break
        best, x, restart = result.fun, result.x, run
    law = law_at(x)
    # the search fits its law to these draws, so a law near Laplace can beat
    # Laplace on them by chance; keep a law only if it wins by more than
    # _SIGNIFICANCE standard errors of the paired difference
    with np.errstate(invalid="ignore"):
        gain = sign * (estimate.per_trial(*_atoms(laplace)) - estimate.per_trial(*_atoms(law)))
        if not np.mean(gain) > _SIGNIFICANCE * np.std(gain) / math.sqrt(gain.size):
            law, restart = laplace, 0
    return _calibrated(law, evals[0], restart, privacy, goal, estimate)


def _calibrated(combo, evaluations, restart, privacy, goal, estimate):
    """The result record for the chosen combination, with its baselines,
    scored like the search (``estimate`` for the Monte-Carlo metrics).
    Fails closed when the combination misses the epsilon target."""
    achieved = epsilon_of_combo(combo, privacy.sensitivity)
    if not abs(achieved - privacy.epsilon) <= _EPSILON_TOL:
        raise InfeasibleSpecError(f"epsilon {achieved!r} misses the target {privacy.epsilon!r}")
    return CalibratedMechanism(
        combo=combo,
        achieved_epsilon=achieved,
        target_epsilon=privacy.epsilon,
        predicted_utility=_analytic_utility(combo, goal, estimate),
        baseline_laplace_utility=_analytic_utility(laplace_seed(privacy), goal, estimate),
        staircase_utility=baseline_staircase(privacy, goal),
        diagnostics=SolverDiagnostics(evaluations=evaluations, winning_restart=restart),
    )


def baseline_laplace(privacy: PrivacySpec, goal: UtilityGoal) -> float:
    """The Laplace mechanism's usefulness or noise norm, exact; other
    metrics have no closed form (``ValueError``)."""
    if _payoff(goal) is None:
        raise ValueError(f"{goal.metric} has no closed form under Laplace")
    return _analytic_utility(laplace_seed(privacy), goal, None)


def baseline_staircase(privacy: PrivacySpec, goal: UtilityGoal) -> float | None:
    """The staircase mechanism's usefulness or noise norm, else None."""
    if goal.metric == "usefulness":
        return staircase_usefulness(privacy.epsilon, privacy.sensitivity, goal.gamma)
    p = norm_power(goal)
    return None if p is None else staircase_norm(privacy.epsilon, privacy.sensitivity, p)
