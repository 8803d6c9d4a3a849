import importlib
import inspect
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import brentq

from dpcalib.distributions import Bernoulli, Degenerate, Gamma, LinearCombo, Uniform, singleton
from dpcalib.mechanisms import CompoundLaplace, sample_noise, staircase_norm
from dpcalib.optimize import (
    CalibratedMechanism,
    InfeasibleSpecError,
    SearchSpaceSpec,
    SolverDiagnostics,
    baseline_laplace,
    calibrate_scale,
    laplace_seed,
    optimize,
    two_atom_optimum,
)
from dpcalib.privacy import PrivacySpec, epsilon_of_combo, passes_necessary_condition, rdp_of
from dpcalib.utility import (
    Histogram,
    TwoAtomMetric,
    UtilityGoal,
    expected_metric_empirical,
    l1_bound,
    l2_bound,
    usefulness_bound,
)
from strategies import lp_optimum

FAST = SearchSpaceSpec(restarts=6, max_evals=150)
# a small budget for the Monte-Carlo two-atom search (mallows/kl/renyi)
SMALL_SEARCH = SearchSpaceSpec(restarts=3, max_evals=40, mc_trials=400)
PRIOR = np.linspace(0, 5, 8)


def test_laplace_seed_examples():
    assert laplace_seed(PrivacySpec(1.0, 1.0)).terms[0][1] == Degenerate(1.0)
    assert laplace_seed(PrivacySpec(2.0, 0.5)).terms[0][1] == Degenerate(4.0)
    for eps, dq in [(0.3, 1.7), (5.0, 0.2)]:
        seed = laplace_seed(PrivacySpec(eps, dq))
        assert epsilon_of_combo(seed, dq) == pytest.approx(eps, rel=1e-15)


def test_baseline_laplace_is_exact_or_refused():
    # Laplace at scale b = dq/eps has E|noise| = b and usefulness 1 - e^(-gamma/b)
    privacy = PrivacySpec(2.0, 0.5)
    assert baseline_laplace(privacy, UtilityGoal("l1")) == pytest.approx(0.25, rel=1e-12)
    assert baseline_laplace(privacy, UtilityGoal("usefulness", gamma=0.1)) == pytest.approx(
        -math.expm1(-0.4), rel=1e-12)
    with pytest.raises(ValueError, match="no closed form"):
        baseline_laplace(privacy, UtilityGoal("kl", prior=Histogram.uniform(8, total=400.0)))


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpaceSpec(restarts=0)
    # restarts caps a chain of runs, so any positive count is a budget
    assert SearchSpaceSpec(restarts=7).restarts == 7
    with pytest.raises(ValueError):
        SearchSpaceSpec(max_evals=0)
    with pytest.raises(ValueError):
        SearchSpaceSpec(mc_trials=0)


def test_calibrate_scale_hits_target_exactly():
    privacy = PrivacySpec(2.0, 1.0)
    for combo in [
        singleton(Gamma(3.0, 1.0)),
        LinearCombo(((0.5, Gamma(2.0, 1.0)), (0.5, Uniform(0.1, 3.0)))),
    ]:
        scaled = calibrate_scale(combo, privacy)
        assert epsilon_of_combo(scaled, 1.0) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("eps,dq,gamma", [(0.5, 1.0, 0.4), (2.0, 0.5, 0.1), (8.0, 1.0, 0.1),
                                         (4.0, 1.0, 0.2)])
def test_optimizer_dominates_laplace(eps, dq, gamma):
    privacy = PrivacySpec(eps, dq)
    result = optimize(FAST, privacy, UtilityGoal("usefulness", gamma=gamma), seed=11)
    assert result.predicted_utility >= result.baseline_laplace_utility - 1e-9
    assert abs(result.achieved_epsilon - eps) <= 1e-9


def test_optimizer_improves_at_large_epsilon():
    privacy = PrivacySpec(8.0, 1.0)
    result = optimize(FAST, privacy, UtilityGoal("usefulness", gamma=0.1), seed=11)
    assert result.predicted_utility > result.baseline_laplace_utility + 0.2


def test_optimizer_deterministic():
    privacy = PrivacySpec(3.0, 1.0)
    goal = UtilityGoal("usefulness", gamma=0.4)
    a = optimize(FAST, privacy, goal, seed=21)
    b = optimize(FAST, privacy, goal, seed=21)
    assert a.combo == b.combo
    assert a.predicted_utility == b.predicted_utility
    assert a.diagnostics == b.diagnostics


def test_constraint_honesty():
    privacy = PrivacySpec(5.0, 1.0)
    result = optimize(FAST, privacy, UtilityGoal("usefulness", gamma=0.2), seed=2)
    fresh = epsilon_of_combo(result.combo, 1.0)
    assert fresh == pytest.approx(result.achieved_epsilon, abs=1e-12)
    assert abs(result.achieved_epsilon - result.target_epsilon) <= 1e-9


def test_filter_soundness_rejected_candidates_cannot_beat_laplace():
    # any combination rejected by the improvement filter, force-evaluated at
    # the exact budget, must sit at or below the Laplace usefulness
    privacy = PrivacySpec(1.5, 1.0)
    gamma = 0.6
    laplace_val = 1.0 - math.exp(-gamma * 1.5)
    rng = np.random.default_rng(42)
    rejected = 0
    tries = 0
    while rejected < 100 and tries < 3000:
        tries += 1
        shape = float(rng.uniform(0.1, 3.0))
        scale = float(rng.uniform(0.05, 5.0))
        try:
            combo = calibrate_scale(singleton(Gamma(shape, scale)), privacy)
        except InfeasibleSpecError:
            continue
        if passes_necessary_condition(combo, 1.0):
            continue
        rejected += 1
        assert usefulness_bound(combo, gamma) <= laplace_val + 1e-6
    assert rejected == 100


def test_l2_goal_small_epsilon_returns_laplace():
    privacy = PrivacySpec(0.5, 1.0)
    result = optimize(FAST, privacy, UtilityGoal("l2"), seed=9)
    laplace_l2 = math.sqrt(2.0) / 0.5
    assert result.predicted_utility <= laplace_l2 + 1e-9
    assert result.predicted_utility >= 0.95 * laplace_l2


def test_l2_goal_large_epsilon_beats_laplace():
    privacy = PrivacySpec(8.0, 1.0)
    result = optimize(FAST, privacy, UtilityGoal("l2"), seed=9)
    assert result.predicted_utility < result.baseline_laplace_utility
    assert result.staircase_utility is not None


def test_prior_dependent_goal_runs():
    privacy = PrivacySpec(2.0, 1.0)
    goal = UtilityGoal("mallows", p=2.0, prior=PRIOR)
    result = optimize(SMALL_SEARCH, privacy, goal, seed=1)
    assert abs(result.achieved_epsilon - 2.0) <= 1e-9
    assert result.predicted_utility <= result.baseline_laplace_utility + 1e-9
    assert result.staircase_utility is None


def test_calibrated_mechanism_round_trip():
    privacy = PrivacySpec(2.0, 1.0)
    result = optimize(FAST, privacy, UtilityGoal("usefulness", gamma=0.9), seed=4)
    text = result.to_text()
    back = CalibratedMechanism.from_text(text)
    assert back.combo == result.combo
    assert back.predicted_utility == result.predicted_utility
    assert back.diagnostics == result.diagnostics


def test_error_classes_exist():
    assert issubclass(InfeasibleSpecError, RuntimeError)


@pytest.mark.parametrize("metric,eps,dq,gamma,family", [
    ("usefulness", 5.0, 1.0, 0.1, "bernoulli"),
    ("usefulness", 8.0, 1.0, 0.4, "bernoulli"),
    ("usefulness", 1.0, 1.0, 0.4, "degenerate"),
    ("l1", 6.0, 0.5, None, "bernoulli"),
    ("l2", 8.0, 1.0, None, "bernoulli"),
    ("l2", 0.5, 1.0, None, "degenerate"),
])
def test_linear_metrics_solved_exactly(metric, eps, dq, gamma, family):
    privacy = PrivacySpec(eps, dq)
    goal = UtilityGoal(metric, gamma=gamma)
    result = optimize(FAST, privacy, goal, seed=1)
    (coeff, dist), = result.combo.terms
    assert dist.family == family
    assert abs(epsilon_of_combo(result.combo, dq) - eps) <= 1e-9
    noise = sample_noise(CompoundLaplace(result.combo), np.random.default_rng(0), 100_000)
    assert np.all(np.isfinite(noise) & (noise != 0.0))
    # no law on a fine grid of scales does better
    if metric == "usefulness":
        best = lp_optimum(eps, dq, lambda x: -np.expm1(-gamma * x))
        assert result.predicted_utility >= best - 1e-9
    elif metric == "l1":
        best = -lp_optimum(eps, dq, lambda x: -1.0 / x)
        assert result.predicted_utility <= best * (1.0 + 1e-9)
    else:
        best = math.sqrt(-2.0 * lp_optimum(eps, dq, lambda x: -1.0 / (x * x)))
        assert result.predicted_utility <= best * (1.0 + 1e-9)
    if family == "degenerate":
        assert dist == Degenerate(eps / dq) and coeff == 1.0


LINEAR_GOALS = [UtilityGoal("usefulness", gamma=0.1), UtilityGoal("l1"), UtilityGoal("l2")]


@pytest.mark.parametrize("dq", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("goal", LINEAR_GOALS, ids=lambda goal: goal.metric)
def test_tiny_epsilon_returns_the_laplace_law_unscaled(goal, dq):
    # the Laplace law is returned as built, coefficient 1.0: a rescaling pass
    # would chase the rounding of epsilon_of_combo instead
    result = optimize(FAST, PrivacySpec(0.01, dq), goal, seed=3)
    assert result.combo == LinearCombo(((1.0, Degenerate(0.01 / dq)),))


def test_search_keeps_its_start_law_when_no_run_improves():
    # at this budget Nelder-Mead ends where it started, and the better exact
    # law still beats Laplace on the search's draws
    goal = UtilityGoal("kl", prior=Histogram.uniform(8, total=400.0))
    privacy = PrivacySpec(8.0, 1.0)
    spec = SearchSpaceSpec(restarts=2, max_evals=20)
    result = optimize(spec, privacy, goal, seed=5)
    assert result.diagnostics.winning_restart == 0
    assert isinstance(result.combo.terms[0][1], Bernoulli)
    estimate = TwoAtomMetric(goal, spec.mc_trials, np.random.default_rng(5 ^ 0x5EED))
    exact = min(estimate(*_atoms(two_atom_optimum(privacy, UtilityGoal(metric))[0]))
                for metric in ("l1", "l2"))
    assert result.predicted_utility == pytest.approx(exact, rel=1e-12)
    assert result.predicted_utility < result.baseline_laplace_utility


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dq", [1e-3, 1.0, 300.0])
@pytest.mark.parametrize("eps", [0.01, 0.25, 1.0, 8.0, 60.0, 260.0, 500.0, 700.0])
@pytest.mark.parametrize("goal", LINEAR_GOALS, ids=lambda goal: goal.metric)
def test_two_atom_optimum_meets_epsilon_without_rescaling(goal, eps, dq):
    law, _ = two_atom_optimum(PrivacySpec(eps, dq), goal)
    assert abs(epsilon_of_combo(law, dq) - eps) <= 1e-12 * max(1.0, eps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dq", [1e-300, 1e-200, 1e-156, 1e-152, 1e100, 1e104, 1e150, 1e156,
                                1e200, 1e300])
@pytest.mark.parametrize("goal", LINEAR_GOALS, ids=lambda goal: goal.metric)
def test_two_atom_optimum_solves_or_refuses_at_the_float_range(goal, dq):
    # where lam, f or e^(eps - dq x) leaves the float range the spec is
    # refused, with no warning on the way; every law returned is exact.
    # At dq >= 1e100 usefulness's far chords tie in rounded slope, which
    # must not cycle the search on the tables
    try:
        law, calls = two_atom_optimum(PrivacySpec(5.0, dq), goal)
    except InfeasibleSpecError:
        return
    assert abs(epsilon_of_combo(law, dq) - 5.0) <= 1e-9
    assert calls <= 8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eps", [710.0, 1000.0])
@pytest.mark.parametrize("goal", LINEAR_GOALS, ids=lambda goal: goal.metric)
def test_two_atom_optimum_refuses_an_overflowing_epsilon(goal, eps):
    # past eps ~ 709.78, e^eps overflows: a clear error, not a warning
    with pytest.raises(InfeasibleSpecError, match="too large"):
        two_atom_optimum(PrivacySpec(eps, 1.0), goal)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dq, word", [(1e-300, "large"), (1e150, "small")])
def test_two_atom_optimum_blames_the_ratio_when_its_grid_leaves_the_float_range(dq, word):
    # epsilon = 5 is fine; it is x0 = epsilon/sensitivity that the grid cannot span
    with pytest.raises(InfeasibleSpecError, match=f"epsilon/sensitivity = .* is too {word}"):
        two_atom_optimum(PrivacySpec(5.0, dq), UtilityGoal("l2"))


def _reference_payoff(goal):
    """f(x) of each linear metric, written apart from the optimizer's table."""
    if goal.metric == "usefulness":
        return lambda x: -np.expm1(-goal.gamma * x)
    return {"l1": lambda x: -1.0 / x, "l2": lambda x: -1.0 / (x * x)}[goal.metric]


@pytest.mark.parametrize("eps,dq,goal", [
    (eps, dq, UtilityGoal("usefulness", gamma=gamma))
    for eps, dq in ((0.5, 0.5), (2.0, 1.0), (5.0, 1.0), (8.0, 0.5)) for gamma in (0.1, 0.9)
] + [
    (eps, dq, UtilityGoal(metric))
    for metric in ("l1", "l2") for eps, dq in ((0.25, 1.0), (4.0, 0.5), (8.0, 1.0), (60.0, 300.0))
] + [
    (30.0, 3.0, UtilityGoal("usefulness", gamma=1.0)),
    (260.0, 1.0, UtilityGoal("usefulness", gamma=0.1)),
    (260.0, 1.0, UtilityGoal("l1")),
    (260.0, 1.0, UtilityGoal("l2")),
])
def test_each_refined_peak_beats_a_dense_grid(eps, dq, goal, monkeypatch):
    # every side maximum the dual evaluates is at least the maximum of
    # h = f - lam g on a dense log grid of the bracket it refines, less 4
    # ulp of the terms h is computed from.  e^(eps - dq x) carries the
    # rounding of its argument, so that term counts |eps - dq x| times:
    # at eps = 260 a float h is off by about 100 ulp of h.  Exactly, in
    # decimal, the refined point is as high as its dense neighbours.
    optimize_module = importlib.import_module("dpcalib.optimize")
    peak = optimize_module._peak
    seen = []

    def recording(privacy, f, log_fprime, side, log_lam):
        out = peak(privacy, f, log_fprime, side, log_lam)
        seen.append((side[0], math.exp(log_lam), out))
        return out

    monkeypatch.setattr(optimize_module, "_peak", recording)
    two_atom_optimum(PrivacySpec(eps, dq), goal)
    assert seen
    f = _reference_payoff(goal)
    for xs, lam, (value, x_peak) in seen:
        h = f(xs) - lam * -xs * np.expm1(eps - dq * xs)
        i = int(np.argmax(h))
        dense = np.geomspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], 20001)
        g = -dense * np.expm1(eps - dq * dense)
        h = f(dense) - lam * g
        terms = np.abs(f(dense)) + lam * np.abs(g) * (1.0 + np.abs(eps - dq * dense))
        assert value >= h.max() - 4.0 * np.spacing(terms.max())
        k = int(np.searchsorted(dense, x_peak))
        exact = _decimal_h(goal, eps, dq, lam, x_peak)
        for x in {dense[max(k - 1, 0)], dense[min(k, dense.size - 1)]}:
            best = _decimal_h(goal, eps, dq, lam, x)
            assert exact >= best - 4 * Decimal(np.spacing(abs(float(best))))


def _decimal_h(goal, eps, dq, lam, x):
    """f(x) - lam g(x) in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        x, lam = Decimal(x), Decimal(lam)
        g = -x * ((Decimal(eps) - Decimal(dq) * x).exp() - 1)
        if goal.metric == "usefulness":
            f = 1 - (-Decimal(goal.gamma) * x).exp()
        else:
            f = -1 / x ** (1 if goal.metric == "l1" else 2)
        return f - lam * g


_BOUNDS = {
    "usefulness": lambda combo, goal: usefulness_bound(combo, goal.gamma),
    "l1": lambda combo, goal: l1_bound(combo),
    "l2": lambda combo, goal: l2_bound(combo),
}


# the 48 criterion-5 usefulness cells, and l1 and l2 at six epsilons
LINEAR_CELLS = [
    (eps, dq, UtilityGoal("usefulness", gamma=gamma))
    for eps in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0) for dq in (0.5, 1.0)
    for gamma in (0.1, 0.4, 0.6, 0.9)
] + [
    (eps, 1.0, UtilityGoal(metric))
    for metric in ("l1", "l2") for eps in (0.5, 1.0, 2.0, 4.0, 6.0, 8.0)
]


@pytest.mark.parametrize("eps,dq,goal", LINEAR_CELLS[48:])
def test_two_atom_optimum_reaches_the_lp_oracle(eps, dq, goal):
    # the LP over laws on a fine grid of scales is a lower bound on the
    # best law; the dual's law must reach it.  Criterion 5 checks the same
    # on the usefulness cells.
    law, _ = two_atom_optimum(PrivacySpec(eps, dq), goal)
    (coeff, dist), = law.terms
    f = _reference_payoff(goal)
    if isinstance(dist, Bernoulli):
        value = dist.p * f(coeff * dist.x0) + (1.0 - dist.p) * f(coeff * dist.x1)
    else:
        value = f(coeff * dist.value)
    oracle = lp_optimum(eps, dq, f)
    assert value >= oracle - 4.0 * np.finfo(float).eps * (1.0 + abs(oracle))


@pytest.mark.parametrize("eps,dq,goal", LINEAR_CELLS)
def test_predicted_utility_matches_the_mgf_quadrature(eps, dq, goal):
    # the record scores the law from its atoms; the MGF quadrature of the
    # utility layer is an independent route to the same number
    result = optimize(FAST, PrivacySpec(eps, dq), goal, seed=7)
    quadrature = _BOUNDS[goal.metric](result.combo, goal)
    assert result.predicted_utility == pytest.approx(quadrature, rel=1e-12)
    assert result.baseline_laplace_utility == pytest.approx(
        _BOUNDS[goal.metric](laplace_seed(PrivacySpec(eps, dq)), goal), rel=1e-12)


def test_linear_cells_take_few_dual_evaluations():
    # the supporting chord of the tables, then Newton steps from its slope:
    # at most 12 evaluations a cell and 200 in all on the 60 cells, where a
    # doubling bracket and brentq on the gap took up to 17 and 261
    calls = [two_atom_optimum(PrivacySpec(eps, dq), goal)[1] for eps, dq, goal in LINEAR_CELLS]
    assert max(calls) <= 12 and sum(calls) <= 200


def _decimal_law(law, dq, goal):
    """(epsilon, E f(X)) of a one-term Degenerate or Bernoulli law in
    50-digit decimal."""
    w, x_lo, x_hi = _atoms(law)
    with localcontext() as ctx:
        ctx.prec = 50
        atoms = [(Decimal(w), x_lo), (1 - Decimal(w), x_hi)]
        mean = sum(p * Decimal(x) for p, x in atoms)
        slope = sum(p * Decimal(x) * (-Decimal(dq) * Decimal(x)).exp() for p, x in atoms)
        payoff = sum(p * _decimal_h(goal, 0.0, dq, 0.0, x) for p, x in atoms)
        return (mean / slope).ln(), payoff


@pytest.mark.parametrize("eps, before", [(200.0, 80), (260.0, 86)])
def test_large_epsilon_usefulness_is_solved_in_fewer_evaluations(eps, before):
    # the lower side's maximum sits on x0 or on a peak near 1.1, and the
    # two tie at the multiplier: the supporting chord of the tables picks
    # the peak.  The law is no worse than Laplace, and its epsilon meets
    # the target, both checked in 50-digit decimal
    privacy, goal = PrivacySpec(eps, 1.0), UtilityGoal("usefulness", gamma=0.1)
    law, calls = two_atom_optimum(privacy, goal)
    assert calls < before
    epsilon, payoff = _decimal_law(law, 1.0, goal)
    assert abs(float(epsilon) - eps) <= 1e-9
    assert abs(epsilon_of_combo(law, 1.0) - eps) <= 1e-9
    assert payoff >= _decimal_law(laplace_seed(privacy), 1.0, goal)[1]


# 29 epsilons from 0.01 to 705, five sensitivities and each linear goal
SWEEP_GOALS = [UtilityGoal("usefulness", gamma=gamma) for gamma in (0.1, 0.4, 0.9)] + LINEAR_GOALS[1:]
SWEEP_CELLS = [(float(eps), dq, goal) for eps in np.geomspace(0.01, 705.0, 29)
               for dq in (1e-3, 0.5, 1.0, 3.0, 300.0) for goal in SWEEP_GOALS]


def test_sweep_takes_few_evaluations_and_meets_epsilon():
    # the bracket search took up to 50 evaluations a cell and 4,054 in all.
    # Where two peaks tie at the multiplier the Newton steps alternate
    # between them, and a step no shorter than the last ends the solve
    calls = []
    for eps, dq, goal in SWEEP_CELLS:
        if eps == 705.0 and dq == 1e-3:  # e^(eps - dq x) overflows on the grid
            with pytest.raises(InfeasibleSpecError, match="too large"):
                two_atom_optimum(PrivacySpec(eps, dq), goal)
            continue
        law, n = two_atom_optimum(PrivacySpec(eps, dq), goal)
        assert abs(epsilon_of_combo(law, dq) - eps) <= 1e-9, (eps, dq, goal)
        calls.append(n)
    assert max(calls) <= 12 and sum(calls) <= 4054 // 2


# each linear goal at epsilon 100 to 500, where a side's maximum may sit on
# two peaks at the multiplier
LARGE_EPSILON_CELLS = [(eps, dq, goal) for eps in (100.0, 200.0, 260.0, 300.0, 400.0, 500.0)
                       for dq in (0.5, 1.0, 3.0) for goal in SWEEP_GOALS]


@pytest.mark.parametrize("eps,dq,goal", LARGE_EPSILON_CELLS)
def test_large_epsilon_cells_are_solved_in_few_evaluations(eps, dq, goal):
    # the bracket search on the multiplier took up to 50 evaluations here.
    # The law meets epsilon and is no worse than Laplace, in 50-digit decimal
    privacy = PrivacySpec(eps, dq)
    law, calls = two_atom_optimum(privacy, goal)
    assert calls <= 8
    epsilon, payoff = _decimal_law(law, dq, goal)
    assert abs(float(epsilon) - eps) <= 1e-9
    assert payoff >= _decimal_law(laplace_seed(privacy), dq, goal)[1]


# the evaluations each cell took with a doubling bracket and brentq on the gap
LARGE_EPSILON_NORM_CALLS = {("l1", 200.0): 30, ("l1", 260.0): 39, ("l1", 400.0): 41,
                            ("l2", 200.0): 39, ("l2", 260.0): 49, ("l2", 400.0): 45}


@pytest.mark.parametrize("dq", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("metric, eps", sorted(LARGE_EPSILON_NORM_CALLS))
def test_large_epsilon_norms_take_no_more_evaluations(metric, eps, dq):
    # the chord's slope is Newton's step in lam, not in ln lam, where the
    # gap grows like e^(ln lam) and a step would move by about 1
    law, calls = two_atom_optimum(PrivacySpec(eps, dq), UtilityGoal(metric))
    assert calls <= LARGE_EPSILON_NORM_CALLS[metric, eps]
    assert isinstance(law.terms[0][1], Bernoulli)
    assert abs(epsilon_of_combo(law, dq) - eps) <= 1e-12 * eps


def _replay_through_scipy(monkeypatch, run):
    """Run ``run`` with every call of the in-module Brent recorded, then
    replay each through scipy's brentq; returns the number of calls."""
    optimize_module = importlib.import_module("dpcalib.optimize")
    port = optimize_module._brentq
    calls = []

    def recording(f, a, b, **options):
        root = port(f, a, b, **options)
        calls.append((f, a, b, options, root))
        return root

    monkeypatch.setattr(optimize_module, "_brentq", recording)
    run()
    for f, a, b, options, root in calls:
        assert brentq(f, a, b, **options) == root, (a, b, options)
    return len(calls)


def test_every_refined_peak_is_scipys_brentq_root(monkeypatch):
    # the in-module Brent is scipy's C loop step for step: each root that
    # _peak takes on the 60 linear cells and at large epsilon is scipy's
    def run():
        for eps, dq, goal in LINEAR_CELLS + LARGE_EPSILON_CELLS:
            two_atom_optimum(PrivacySpec(eps, dq), goal)

    assert _replay_through_scipy(monkeypatch, run) > 400


def test_calibrate_scale_roots_are_scipys_brentq_roots(monkeypatch):
    laws = [(PrivacySpec(2.0, 1.0), singleton(Gamma(3.0, 1.0))),
            (PrivacySpec(2.0, 1.0), LinearCombo(((0.5, Gamma(2.0, 1.0)), (0.5, Uniform(0.1, 3.0)))))]
    rng = np.random.default_rng(42)  # the filter test's laws
    laws += [(PrivacySpec(1.5, 1.0), singleton(Gamma(float(rng.uniform(0.1, 3.0)),
                                                     float(rng.uniform(0.05, 5.0)))))
             for _ in range(40)]

    def run():
        for privacy, combo in laws:
            calibrate_scale(combo, privacy)

    assert _replay_through_scipy(monkeypatch, run) == len(laws)


def _sweep_functions(count):
    """(f, a, b, options) over smooth, flat, stepped and subnormal-valued
    functions: every branch of Brent's loop, division by zero included."""
    rng = np.random.default_rng(2024)
    for i in range(count):
        c = [float(v) for v in rng.normal(size=4)]
        f = (lambda x, c=c: c[0] * x ** 3 + c[1] * x ** 2 + c[2] * x + c[3],
             lambda x, c=c: math.tanh(c[0] * x + c[1]) + 0.3 * c[2],
             lambda x, c=c: (x - c[0]) ** 3 * 1e-300,
             lambda x, c=c: -1.0 if x < c[0] else (1e-320 if x < c[0] + abs(c[1]) else 1.0),
             lambda x, c=c: math.floor(4.0 * (x - c[0])) * 1e-310)[i % 5]
        a, b = sorted(float(v) for v in rng.normal(scale=3.0, size=2))
        options = {"xtol": float(10.0 ** rng.uniform(-300, -1))}
        if i % 3 == 0:
            options["rtol"] = float(10.0 ** rng.uniform(-15.05, -3))
        if i % 4 == 1:
            options["maxiter"] = int(rng.integers(0, 30))
        yield f, a, b, options


def _outcome(solver, f, a, b, options):
    try:
        return solver(f, a, b, **options)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


_BRENT = importlib.import_module("dpcalib.optimize")._brentq
# a source line of _brentq that only the named step runs
_BRENT_STEPS = {"loop": "for _ in range(maxiter):",
                "interpolate": "stry = -fcur * (xcur - xpre) / (fcur - fpre)",
                "extrapolate": "dpre = (fpre - fcur) / (xpre - xcur)",
                "zero_division": "pass",
                "nan": "raise ValueError(_NAN_VALUE.format(xcur))"}


def _brent_steps(f, a, b, options):
    """(outcome, the steps of _BRENT_STEPS that _brentq ran on f over [a, b])."""
    source, first = inspect.getsourcelines(_BRENT)
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not _BRENT.__code__:
            return None
        if event == "line":
            ran.add(source[frame.f_lineno - first].strip())
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        outcome = _outcome(_BRENT, f, a, b, options)
    finally:
        sys.settrace(previous)
    return outcome, {step for step, line in _BRENT_STEPS.items() if line in ran}


@pytest.mark.parametrize("f, a, b, options, steps", [
    (lambda x: x - 0.3, 0.0, 1.0, {}, {"loop", "interpolate"}),
    (lambda x: x ** 3 - 2.0, 0.0, 2.0, {}, {"loop", "interpolate", "extrapolate"}),
    # subnormal values: a divided difference underflows to 0
    (lambda x: (x - 0.3) ** 3 * 1e-300, -4.0, 2.5, {"xtol": 1e-250},
     {"loop", "interpolate", "extrapolate", "zero_division"}),
    # infinite values meet each |v| and min(v, w)
    (lambda x: -math.inf if x < 0.2 else x - 0.3, 0.0, 1.0, {},
     {"loop", "interpolate", "extrapolate"}),
    (lambda x: 1e308 * (x - 0.3) * (1.0 + x * x), -1.0, 1.0, {},
     {"loop", "interpolate", "extrapolate"}),
    # a coarse tolerance, where the "- delta" of the step's bound decides the step
    (lambda x: (math.tanh(-0.1498139092597039 * x) - 0.3 * 0.6971672138758627
                - 0.1 * 0.22878163671214083 * x * x), -3.0968012659976387, 3.7963531272967446,
     {"xtol": 0.12273154524613608}, {"loop", "interpolate", "extrapolate"}),
    (lambda x: x - 0.25, 0.25, 3.0, {}, set()),  # a root at a
    (lambda x: x - 3.0, 0.25, 3.0, {}, set()),  # a root at b
    (lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, 0.0, 1.0, {}, {"loop", "nan"}),
], ids=["interpolate", "extrapolate", "zero_division", "infinite_values", "overflow",
        "coarse_tolerance", "root_at_a", "root_at_b", "nan"])
def test_brentq_reaches_each_step_with_scipys_root(f, a, b, options, steps):
    ours, ran = _brent_steps(f, a, b, options)
    assert ran == steps
    theirs = _outcome(brentq, f, a, b, options)
    if isinstance(theirs, float):
        assert ours.hex() == theirs.hex()
    else:
        assert ours == theirs and theirs[0] is ValueError
    if not steps:
        assert ours in (a, b) and f(ours) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_brentq_port_matches_scipy_on_a_sweep():
    port = importlib.import_module("dpcalib.optimize")._brentq
    converged = 0
    for f, a, b, options in _sweep_functions(1500):
        ours = _outcome(port, f, a, b, options)
        assert ours == _outcome(brentq, f, a, b, options), (f, a, b, options)
        converged += isinstance(ours, float)
    assert converged > 300


def test_brentq_port_edge_cases_are_scipys():
    port = importlib.import_module("dpcalib.optimize")._brentq
    cases = [
        (lambda x: x - 0.25, 0.25, 3.0, {}),  # f(a) = 0 returns a
        (lambda x: x - 3.0, 0.25, 3.0, {}),  # f(b) = 0 returns b
        (lambda x: -0.0 if x == 0.0 else 1.0, 0.0, 1.0, {}),
        (lambda x: x * x + 1.0, -1.0, 2.0, {}),  # no sign change
        (lambda x: 1e-200, 0.0, 1.0, {}),  # a sign test by product would underflow
        (lambda x: math.nan, 0.0, 1.0, {}),
        (lambda x: 1.0 if x > 0.5 else math.nan, 0.0, 1.0, {}),
        (lambda x: -1.0 if x < 0.123456789 else 1.0, 0.0, 1.0, {"maxiter": 3}),
        (lambda x: x - 0.3, 0.0, 1.0, {"maxiter": 0}),
    ]
    for f, a, b, options in cases:
        assert _outcome(port, f, a, b, options) == _outcome(brentq, f, a, b, options)
    assert port(lambda x: x - 0.25, 0.25, 3.0) == 0.25
    with pytest.raises(ValueError, match="different signs"):
        port(lambda x: x * x + 1.0, -1.0, 2.0)
    with pytest.raises(ValueError, match="NaN"):
        port(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(RuntimeError, match="converge"):
        port(lambda x: -1.0 if x < 0.123456789 else 1.0, 0.0, 1.0, maxiter=3)


@pytest.mark.parametrize("goal", LINEAR_GOALS, ids=lambda goal: goal.metric)
@pytest.mark.parametrize("x0", [1e-3, 0.0123, 0.3, 1.0, 7.77, 42.0, 300.0])
def test_tables_share_x0_exactly(x0, goal, monkeypatch):
    # both tables are shifts of one unit grid in ln x, and e^(ln x0) may miss
    # x0 by an ulp: the shared end is pinned, so h(x0) = f(x0) on both sides
    optimize_module = importlib.import_module("dpcalib.optimize")
    peak = optimize_module._peak
    seen = []

    def recording(privacy, f, log_fprime, side, log_lam):
        seen.append(side[0])
        return peak(privacy, f, log_fprime, side, log_lam)

    monkeypatch.setattr(optimize_module, "_peak", recording)
    for dq in (0.5, 1.0):
        privacy = PrivacySpec(x0 * dq, dq)
        two_atom_optimum(privacy, goal)
        lower, upper = seen[:2]
        assert lower[-1] == upper[0] == privacy.epsilon / privacy.sensitivity
        seen.clear()


@pytest.mark.parametrize("goal", [UtilityGoal("l2"), UtilityGoal("mallows", p=2.0, prior=PRIOR)],
                         ids=lambda goal: goal.metric)
def test_optimize_fails_closed_off_the_epsilon_target(goal, monkeypatch):
    # the package exports the function under the module's name
    optimize_module = importlib.import_module("dpcalib.optimize")
    exact = optimize_module.epsilon_of_combo
    monkeypatch.setattr(optimize_module, "epsilon_of_combo",
                        lambda combo, dq: exact(combo, dq) + 1e-6)
    with pytest.raises(InfeasibleSpecError):
        optimize(SMALL_SEARCH, PrivacySpec(8.0, 1.0), goal, seed=1)


@pytest.mark.parametrize("prior", [None, PRIOR], ids=("no-prior", "prior"))
@pytest.mark.parametrize("dq", [1e-3, 1.0, 300.0])
@pytest.mark.parametrize("eps", [0.01, 1.0, 8.0, 60.0])
def test_mallows_p1_is_solved_as_l1(eps, dq, prior):
    # mean |noise| over the entries is E|noise| whatever the prior, so
    # mallows at p = 1 gets the exact l1 law, for any seed and budget
    privacy = PrivacySpec(eps, dq)
    l1 = optimize(FAST, privacy, UtilityGoal("l1"), seed=0)
    mallows = optimize(SMALL_SEARCH, privacy, UtilityGoal("mallows", p=1.0, prior=prior), seed=5)
    assert mallows.combo == l1.combo
    assert mallows.predicted_utility == l1.predicted_utility
    assert mallows.baseline_laplace_utility == l1.baseline_laplace_utility
    assert mallows.staircase_utility == l1.staircase_utility == staircase_norm(eps, dq, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eps", [60.0, 100.0, 300.0, 700.0])
@pytest.mark.parametrize("metric", ["l1", "l2"])
def test_norm_laws_keep_their_high_atom_inside_the_grid(metric, eps, monkeypatch):
    # the upper grid grows with eps, so the high atom is a peak of the dual,
    # not the grid's last point: a grid 1e20 further out, at the same points
    # per decade, finds no better law
    optimize_module = importlib.import_module("dpcalib.optimize")
    privacy, goal = PrivacySpec(eps, 1.0), UtilityGoal(metric)
    law, _ = two_atom_optimum(privacy, goal)
    (_, dist), = law.terms
    reach = optimize_module._reach(goal, eps)
    last_step = optimize_module._SPAN ** (1.0 / (optimize_module._ATOMS_PER_SIDE - 1))
    assert isinstance(dist, Bernoulli) and dist.x1 < eps * reach / last_step
    noise = sample_noise(CompoundLaplace(law), np.random.default_rng(0), 10_000)
    assert np.all(np.isfinite(noise) & (noise != 0.0))
    reach_of = optimize_module._reach
    monkeypatch.setattr(optimize_module, "_reach", lambda goal, eps: 1e20 * reach_of(goal, eps))
    (_, wide), = two_atom_optimum(privacy, goal)[0].terms
    f = _reference_payoff(goal)
    value = dist.p * f(dist.x0) + (1.0 - dist.p) * f(dist.x1)
    wide_value = wide.p * f(wide.x0) + (1.0 - wide.p) * f(wide.x1)
    assert value >= wide_value - 4.0 * np.finfo(float).eps * abs(wide_value)


def test_two_atom_optimum_rejects_prior_dependent_metrics():
    goal = UtilityGoal("mallows", p=2.0, prior=np.linspace(0, 5, 8))
    with pytest.raises(ValueError):
        two_atom_optimum(PrivacySpec(1.0, 1.0), goal)


def _atoms(combo):
    (a, dist), = combo.terms
    if isinstance(dist, Degenerate):
        return 1.0, a * dist.value, a * dist.value
    return dist.p, a * dist.x0, a * dist.x1


def test_two_atom_search_beats_the_exact_l2_law():
    # at eps = 8 mallows p=2 is won by a two-atom law, at least as good on
    # the search's own estimate as the exact l2 law it starts from
    privacy = PrivacySpec(8.0, 1.0)
    goal = UtilityGoal("mallows", p=2.0, prior=PRIOR)
    result = optimize(SMALL_SEARCH, privacy, goal, seed=1)
    (_, dist), = result.combo.terms
    assert isinstance(dist, Bernoulli)
    assert abs(epsilon_of_combo(result.combo, 1.0) - 8.0) <= 1e-9
    # the estimate optimize draws from seed 1
    estimate = TwoAtomMetric(goal, SMALL_SEARCH.mc_trials, np.random.default_rng(1 ^ 0x5EED))
    assert result.predicted_utility == estimate(*_atoms(result.combo))
    assert result.baseline_laplace_utility == estimate(1.0, 8.0, 8.0)
    l2_value = estimate(*_atoms(two_atom_optimum(privacy, UtilityGoal("l2"))[0]))
    assert result.predicted_utility <= l2_value * (1.0 + 1e-9)
    assert result.predicted_utility < result.baseline_laplace_utility


def test_search_draws_its_estimate_once(monkeypatch):
    optimize_module = importlib.import_module("dpcalib.optimize")
    built = []

    class Counted(TwoAtomMetric):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(optimize_module, "TwoAtomMetric", Counted)
    result = optimize(SMALL_SEARCH, PrivacySpec(8.0, 1.0),
                      UtilityGoal("kl", prior=Histogram.uniform(8, total=400.0)), seed=3)
    assert len(built) == 1 and result.diagnostics.evaluations > SMALL_SEARCH.max_evals


_RESCORED_GOALS = [UtilityGoal("mallows", p=2.0, prior=np.arange(10.0)),
                   UtilityGoal("kl", prior=Histogram.uniform(8, total=400.0)),
                   UtilityGoal("renyi", alpha=2.0, prior=Histogram.uniform(8, total=400.0))]


@pytest.mark.parametrize("eps", [1.0, 4.0, 8.0])
@pytest.mark.parametrize("goal", _RESCORED_GOALS, ids=lambda goal: goal.metric)
def test_searched_law_is_no_worse_than_laplace_on_a_fresh_stream(goal, eps):
    # a law fitted to the search's draws must not lose to Laplace on draws
    # it never saw, by more than 2 SE of the paired difference
    result = optimize(SearchSpaceSpec(restarts=6, max_evals=100, mc_trials=1000),
                      PrivacySpec(eps, 1.0), goal, seed=5)
    fresh = TwoAtomMetric(goal, 20_000, np.random.default_rng(2026))
    diff = fresh.per_trial(*_atoms(result.combo)) - fresh.per_trial(1.0, eps, eps)
    assert np.mean(diff) <= 2.0 * np.std(diff) / math.sqrt(diff.size)


@pytest.mark.parametrize("eps", [1.0, 8.0])
def test_mallows_p1_needs_no_prior(eps):
    # optimize solves it as l1, and the release sampler's E|noise| of the
    # returned law agrees with the record
    goal = UtilityGoal("mallows", p=1.0)
    assert not goal.prior_dependent
    result = optimize(SMALL_SEARCH, PrivacySpec(eps, 1.0), goal, seed=2)
    trials = 200_000
    got = expected_metric_empirical(result.combo, goal, trials=trials,
                                    rng=np.random.default_rng(6))
    noise = sample_noise(CompoundLaplace(result.combo), np.random.default_rng(6), trials)
    assert np.mean(np.abs(noise)) == pytest.approx(got, rel=1e-12)
    se = np.std(np.abs(noise)) / math.sqrt(trials)
    assert abs(got - result.predicted_utility) <= 4.0 * se


def test_two_atom_search_deterministic_and_monotone():
    privacy = PrivacySpec(8.0, 1.0)
    goal = UtilityGoal("mallows", p=2.0, prior=PRIOR)
    a = optimize(SMALL_SEARCH, privacy, goal, seed=21)
    b = optimize(SMALL_SEARCH, privacy, goal, seed=21)
    assert a.combo == b.combo
    assert a.predicted_utility == b.predicted_utility
    assert a.diagnostics == b.diagnostics
    # a larger budget extends every start's evaluation sequence, so the
    # best law seen can only improve
    more = optimize(SearchSpaceSpec(restarts=5, max_evals=80, mc_trials=400),
                    privacy, goal, seed=21)
    assert more.predicted_utility <= a.predicted_utility
    assert more.diagnostics.evaluations > a.diagnostics.evaluations


def test_more_restarts_are_no_worse_on_the_search_estimate():
    # each run restarts from the last one's end point and is kept only if
    # it improves, so more runs can only lower the estimate
    privacy = PrivacySpec(8.0, 1.0)
    for goal in _RESCORED_GOALS:
        one = optimize(SearchSpaceSpec(restarts=1, max_evals=40, mc_trials=400), privacy,
                       goal, seed=13)
        six = optimize(SearchSpaceSpec(restarts=6, max_evals=40, mc_trials=400), privacy,
                       goal, seed=13)
        assert six.predicted_utility <= one.predicted_utility
        assert six.baseline_laplace_utility == one.baseline_laplace_utility
        assert six.diagnostics.winning_restart >= one.diagnostics.winning_restart


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("total, eps", [(8.0, 1.0), (4.0, 4.0)])
def test_search_returns_laplace_when_every_law_scores_inf(total, eps):
    # with counts of 1-2 the noise clips some count to zero in every law's
    # draws, so kl is inf: at eps = 1 neither exact law has two atoms, at
    # eps = 4 Nelder-Mead runs on laws that all score inf
    goal = UtilityGoal("kl", prior=Histogram(tuple(range(5)), (0.25,) * 4, total))
    result = optimize(SearchSpaceSpec(2, 20, 400), PrivacySpec(eps, 1.0), goal, seed=1)
    assert result.combo == laplace_seed(PrivacySpec(eps, 1.0))
    assert result.predicted_utility == math.inf
    assert result.diagnostics.winning_restart == 0
    assert (result.diagnostics.evaluations > 1) == (eps > 1.0)


@pytest.mark.parametrize("alpha", [1.5, 8.0])
def test_rdp_of_a_compound_mechanism_is_that_of_its_law(alpha):
    law = optimize(FAST, PrivacySpec(4.0, 1.0), UtilityGoal("l1"), seed=0).combo
    assert isinstance(law.terms[0][1], Bernoulli)
    assert rdp_of(CompoundLaplace(law), alpha) == rdp_of(law, alpha)


# literal floats, so that the record's bits do not depend on the host's
# SIMD routines
_GOLDEN = CalibratedMechanism(
    combo=LinearCombo(((1.0, Bernoulli(0.043239438163539055, 2.223766739243321, 32.31496372301115)),)),
    achieved_epsilon=8.0,
    target_epsilon=8.0,
    predicted_utility=0.07743468188665405,
    baseline_laplace_utility=0.16316900671274037,
    staircase_utility=None,
    diagnostics=SolverDiagnostics(evaluations=43, winning_restart=2),
)
_GOLDEN_TEXT = (
    "target_epsilon = 8.0\n"
    "achieved_epsilon = 8.0\n"
    "predicted_utility = 0.07743468188665405\n"
    "baseline_laplace_utility = 0.16316900671274037\n"
    "staircase_utility = None\n"
    "evaluations = 43\n"
    "winning_restart = 2\n"
    "combo:\n"
    "  1.0 bernoulli p=0.043239438163539055 x0=2.223766739243321 x1=32.31496372301115\n"
)


def test_record_text_is_golden_and_reads_back():
    assert _GOLDEN.to_text() == _GOLDEN_TEXT
    assert CalibratedMechanism.from_text(_GOLDEN_TEXT) == _GOLDEN


def test_from_text_fills_in_what_a_record_may_omit():
    # no staircase baseline and no diagnostics
    text = "".join(line + "\n" for line in _GOLDEN_TEXT.splitlines()
                   if not line.startswith(("staircase_utility", "evaluations", "winning_restart")))
    record = CalibratedMechanism.from_text(text)
    assert record.staircase_utility is None
    assert record.diagnostics == SolverDiagnostics(evaluations=0, winning_restart=0)
    assert record.combo == _GOLDEN.combo


@pytest.mark.parametrize("key", ["target_epsilon", "achieved_epsilon", "predicted_utility",
                                 "baseline_laplace_utility"])
def test_from_text_refuses_a_record_without_a_required_float(key):
    text = "".join(line + "\n" for line in _GOLDEN_TEXT.splitlines()
                   if not line.startswith(key))
    with pytest.raises(ValueError, match=f"no {key}$"):
        CalibratedMechanism.from_text(text)


def test_from_text_reads_records_with_boundary_hit():
    text = (
        "target_epsilon = 2.0\n"
        "achieved_epsilon = 2.0000000000000004\n"
        "predicted_utility = 0.4\n"
        "baseline_laplace_utility = 0.39346934028736658\n"
        "staircase_utility = 0.41\n"
        "evaluations = 3323\n"
        "constraint_residual = 4.4e-16\n"
        "winning_restart = 5\n"
        "boundary_hit = True\n"
        "combo:\n"
        "  0.5 gamma shape=2.0 scale=1.0\n"
        "  0.25 bernoulli p=0.5 x0=1.0 x1=3.0\n"
    )
    record = CalibratedMechanism.from_text(text)
    assert record.combo == LinearCombo(((0.5, Gamma(2.0, 1.0)),
                                        (0.25, Bernoulli(0.5, 1.0, 3.0))))
    assert record.diagnostics.evaluations == 3323
    assert record.diagnostics.winning_restart == 5
    assert record.staircase_utility == 0.41
    assert "boundary_hit" not in record.to_text()
    assert "constraint_residual" not in record.to_text()
