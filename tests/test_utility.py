import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from dpcalib.distributions import (
    Bernoulli,
    Degenerate,
    Gamma,
    LinearCombo,
    MgfDist,
    TruncGaussian,
    Uniform,
    singleton,
)
import dpcalib.utility as utility_module
from dpcalib.mechanisms import CompoundLaplace, sample_noise
from dpcalib.utility import (
    BinMismatchError,
    DivergentIntegralError,
    Histogram,
    LengthMismatchError,
    NonFiniteError,
    TwoAtomMetric,
    UtilityGoal,
    _kl,
    _mallows,
    _renyi,
    expected_metric_empirical,
    kl_divergence,
    l1_bound,
    l2_bound,
    mallows_distance,
    norm_power,
    renyi_divergence,
    transform_error_bound,
    usefulness_bound,
)


def test_usefulness_degenerate_matches_laplace():
    for eps, dq, gamma in [(1.0, 1.0, 0.5), (3.0, 0.5, 0.9), (0.3, 2.0, 1.5)]:
        combo = singleton(Degenerate(eps / dq))
        assert usefulness_bound(combo, gamma) == pytest.approx(
            1.0 - math.exp(-gamma * eps / dq), rel=1e-12
        )


def test_usefulness_vanishes_as_gamma_goes_to_zero():
    combo = singleton(Gamma(2.0, 1.0))
    assert usefulness_bound(combo, 1e-12) < 1e-10


def test_usefulness_gamma_one_value_and_monte_carlo():
    combo = singleton(Gamma(1.0, 1.0))
    assert usefulness_bound(combo, 1.0) == pytest.approx(0.5, abs=1e-14)
    rng = np.random.default_rng(9)
    scales = combo.sample(rng, 400_000)
    noise = rng.laplace(0.0, 1.0 / scales)
    p_hat = np.mean(np.abs(noise) <= 1.0)
    se = math.sqrt(0.5 * 0.5 / noise.size)
    assert abs(p_hat - 0.5) < 3 * se


def test_usefulness_monotone_in_gamma_and_scale():
    combo = singleton(Gamma(2.0, 1.0))
    gammas = (0.1, 0.5, 1.0, 2.0)
    vals = [usefulness_bound(combo, g) for g in gammas]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # shrinking all coefficients (stochastically smaller 1/b) hurts
    shrunk = LinearCombo(tuple((0.5 * a, d) for a, d in combo.terms))
    assert usefulness_bound(shrunk, 1.0) < usefulness_bound(combo, 1.0)


def test_l1_degenerate_recovers_laplace_mad():
    assert l1_bound(singleton(Degenerate(2.0))) == pytest.approx(0.5, rel=1e-9)


def test_l1_gamma_analytic_antiderivative():
    # integral of (1+x)^-2 from 0 to inf is exactly 1
    assert l1_bound(singleton(Gamma(2.0, 1.0))) == pytest.approx(1.0, abs=1e-6)
    # general gamma: 1 / (theta (shape-1))
    assert l1_bound(singleton(Gamma(3.0, 0.5))) == pytest.approx(1.0, rel=1e-8)


def test_l1_divergence_for_heavy_tails():
    with pytest.raises(DivergentIntegralError):
        l1_bound(singleton(Gamma(1.0, 1.0)))
    with pytest.raises(DivergentIntegralError):
        l1_bound(singleton(Uniform(0.0, 2.0)))


def test_l2_degenerate_validates_nested_integral_reading():
    # only the tail-integral reading reproduces the Laplace second moment;
    # the root is taken before the scale, so l2 stays exact where E[1/X^2]
    # overflows (1e-200) or underflows (1e250) and keeps its last digits
    # where E[1/X^2] is subnormal (1e160)
    for v in (2.0, 1e-200, 1e160, 1e250):
        assert l1_bound(singleton(Degenerate(v))) == pytest.approx(1.0 / v, rel=1e-13)
        assert l2_bound(singleton(Degenerate(v))) == pytest.approx(math.sqrt(2.0) / v, rel=1e-13)


def test_l2_gamma_against_monte_carlo():
    combo = singleton(Gamma(3.0, 1.0))
    assert l2_bound(combo) == pytest.approx(1.0, abs=1e-6)  # sqrt(2/((k-1)(k-2)))
    rng = np.random.default_rng(17)
    scales = combo.sample(rng, 400_000)
    noise = rng.laplace(0.0, 1.0 / scales)
    sq = noise**2
    se = sq.std() / math.sqrt(sq.size)
    assert abs(np.mean(sq) - 1.0) < 3 * se


def test_l2_divergence_for_rayleigh():
    # Gamma(2, 1) has E[1/X] = 1/(theta (k - 1)) = 1, but E[1/X^2] diverges
    with pytest.raises(DivergentIntegralError):
        l2_bound(singleton(Gamma(2.0, 1.0)))
    assert l1_bound(singleton(Gamma(2.0, 1.0))) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize(
    "combo",
    [
        singleton(Gamma(3.0, 0.8)),
        LinearCombo(((0.7, Gamma(4.0, 1.0)), (0.3, Uniform(1.0, 4.0)))),
        singleton(TruncGaussian(2.0, 1.0, 0.5, 8.0)),
    ],
)
def test_l2_at_least_l1(combo):
    assert l2_bound(combo) >= l1_bound(combo)


def _inverse_moment(law, order):
    """E[X^-order] in closed form."""
    if isinstance(law, Gamma):
        k, theta = law.shape, law.scale
        return 1.0 / (theta * (k - 1.0)) if order == 1 else 1.0 / (
            theta * theta * (k - 1.0) * (k - 2.0))
    if isinstance(law, Uniform):
        integral = math.log(law.hi / law.lo) if order == 1 else 1.0 / law.lo - 1.0 / law.hi
        return integral / (law.hi - law.lo)
    if isinstance(law, Degenerate):
        return law.value ** -order
    return law.p * law.x0 ** -order + (1.0 - law.p) * law.x1 ** -order


# the two near-critical gamma laws, whose right-hand remainders carry much
# of the integral, are held to the rule's 1e-10; every other law to 1e-13
@pytest.mark.parametrize("law,order,rel", [
    (Gamma(3.0, 1.0), 2, 1e-13),
    (Gamma(2.5, 0.3), 2, 1e-13),
    (Gamma(2.02, 1.0), 2, 1e-10),
    (Gamma(1.01, 2.0), 1, 1e-10),
    (Uniform(1e-6, 1.0), 1, 1e-13),
    (Uniform(1e-6, 1.0), 2, 1e-13),
] + [(Degenerate(v), order, 1e-13) for v in (1e-100, 1e-3, 1.0, 7.5, 1e6) for order in (1, 2)]
  + [(Bernoulli(0.3, 1e-3, 1e6), order, 1e-13) for order in (1, 2)],
    ids=lambda v: repr(v) if isinstance(v, MgfDist) else None)
def test_moment_bounds_against_closed_forms(law, order, rel):
    # l1 = E[1/X] and l2 = sqrt(2 E[1/X^2])
    if order == 1:
        assert l1_bound(law) == pytest.approx(_inverse_moment(law, 1), rel=rel)
    else:
        assert l2_bound(law) == pytest.approx(math.sqrt(2.0 * _inverse_moment(law, 2)), rel=rel)


def test_quadrature_against_scipy_oracle():
    ensemble = LinearCombo((
        (0.11006938022104956, Gamma(4.0, 0.22140275816016983)),
        (0.11006938022104956, Uniform(0.05000000000000001, 12.05)),
        (0.11006938022104956, TruncGaussian(1.0, 0.8, 0.05000000000000001, 25.049999999999997)),
    ))

    def quad(f):
        return integrate.quad(f, 0, np.inf, epsabs=0, epsrel=1e-11, limit=500)[0]

    for combo in (LinearCombo(((0.7, Gamma(3.0, 1.0)), (0.3, Uniform(1.0, 4.0)))), ensemble):
        assert l1_bound(combo) == pytest.approx(quad(lambda x: combo.mgf(-x)), rel=1e-11)
        ref2 = quad(lambda x: x * combo.mgf(-x))
        assert l2_bound(combo) == pytest.approx(math.sqrt(2 * ref2), rel=1e-11)


def test_mallows_examples():
    assert mallows_distance([1.0, 2.0], [1.0, 2.0], 2.0) == 0.0
    assert mallows_distance([0.0, 0.0], [3.0, 4.0], 2.0) == pytest.approx(
        math.sqrt(12.5)
    )
    assert mallows_distance([1, 2, 3], [2, 3, 4], 1.0) == pytest.approx(1.0)
    with pytest.raises(LengthMismatchError):
        mallows_distance([1.0], [1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        mallows_distance([1.0], [2.0], 0.5)


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    st.floats(1.0, 4.0),
)
def test_mallows_triangle_inequality(x, y, z, p):
    n = min(len(x), len(y), len(z))
    x, y, z = x[:n], y[:n], z[:n]
    d_xz = mallows_distance(x, z, p)
    d_xy = mallows_distance(x, y, p)
    d_yz = mallows_distance(y, z, p)
    assert d_xz <= d_xy + d_yz + 1e-9


def _hist(masses, total=1.0):
    edges = tuple(range(len(masses) + 1))
    return Histogram(edges, tuple(masses), total)


def test_divergence_examples():
    p = _hist([1.0, 0.0])
    q = _hist([0.5, 0.5])
    assert kl_divergence(p, q) == pytest.approx(math.log(2.0), abs=1e-12)
    assert kl_divergence(p, p) == 0.0
    assert renyi_divergence(p, p, 2.0) == 0.0
    assert kl_divergence(q, p) == math.inf  # q has mass where p has none
    with pytest.raises(BinMismatchError):
        kl_divergence(p, Histogram((0, 0.5, 1.0), (0.5, 0.5)))
    with pytest.raises(ValueError):
        renyi_divergence(p, q, 1.0)


@given(
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=8),
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=8),
)
def test_divergences_nonnegative_and_zero_iff_equal(raw_p, raw_q):
    n = min(len(raw_p), len(raw_q))
    pm = np.asarray(raw_p[:n]) / sum(raw_p[:n])
    qm = np.asarray(raw_q[:n]) / sum(raw_q[:n])
    p, q = _hist(pm), _hist(qm)
    assert kl_divergence(p, q) >= -1e-12
    assert renyi_divergence(p, q, 0.5) >= -1e-12
    assert renyi_divergence(p, q, 3.0) >= -1e-12
    assert kl_divergence(p, p) <= 1e-12
    if np.max(np.abs(pm - qm)) > 1e-6:
        assert kl_divergence(p, q) > 0


def test_renyi_alpha_to_one_brackets_kl():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pm = rng.dirichlet(np.ones(10))
        qm = rng.dirichlet(np.ones(10))
        p, q = _hist(pm), _hist(qm)
        kl = kl_divergence(p, q)
        lo = renyi_divergence(p, q, 1.0 - 1e-4)
        hi = renyi_divergence(p, q, 1.0 + 1e-4)
        assert lo <= kl <= hi


def test_empirical_usefulness_matches_bound():
    goal = UtilityGoal("usefulness", gamma=0.7)
    combo = singleton(Degenerate(2.0))
    est = expected_metric_empirical(combo, goal, trials=400_000, rng=np.random.default_rng(1))
    bound = usefulness_bound(combo, 0.7)
    se = math.sqrt(bound * (1 - bound) / 400_000)
    assert abs(est - bound) < 4 * se


def test_empirical_mallows_vanishes_without_noise():
    goal = UtilityGoal("mallows", p=2.0, prior=np.linspace(0.0, 10.0, 20))
    est = expected_metric_empirical(
        singleton(Degenerate(1e9)), goal, trials=200, rng=np.random.default_rng(2)
    )
    assert est < 1e-7


def test_empirical_kl_finite_and_monotone_in_scale():
    prior = Histogram.uniform(50, total=2_000_000.0)
    goal = UtilityGoal("kl", prior=prior)
    vals = []
    for value in (0.5, 2.0, 8.0):
        est = expected_metric_empirical(
            singleton(Degenerate(value)), goal, trials=60, rng=np.random.default_rng(3)
        )
        assert math.isfinite(est) and est > 0
        vals.append(est)
    assert vals[0] > vals[1] > vals[2]


def _per_trial_divergence(law, goal, trials, seed):
    # the per-trial loop the array path replaced, with one pair of
    # histograms at a time and the divergences as written for one pair
    hist = goal.prior
    pm = np.asarray(hist.masses)
    noise = sample_noise(CompoundLaplace(law), np.random.default_rng(seed),
                         (trials, pm.size))
    noisy = np.clip(pm * hist.total + noise, 0.0, None)
    totals = noisy.sum(axis=1)
    vals = []
    for row, total in zip(noisy, totals):
        if total <= 0:
            vals.append(math.inf)
            continue
        qm = np.asarray(Histogram(hist.bin_edges, tuple(row / total)).masses)
        support = pm > 0
        if goal.metric == "kl":
            hole = np.any(qm[support] == 0)
            vals.append(math.inf if hole else float(
                np.sum(pm[support] * np.log(pm[support] / qm[support]))))
            continue
        if goal.alpha > 1 and np.any(qm[support] == 0):
            vals.append(math.inf)
            continue
        mask = support & (qm > 0)
        s = float(np.sum(pm[mask] ** goal.alpha * qm[mask] ** (1.0 - goal.alpha)))
        vals.append(math.inf if s == 0.0 else math.log(s) / (goal.alpha - 1.0))
    return float(np.mean(vals))


_SKEWED = (0.3, 0.2, 0.15, 0.1, 0.1, 0.1, 0.045, 0.005)


@pytest.mark.parametrize("law, prior", [
    # counts near zero: holes under the prior, so kl and alpha > 1 give inf
    (Degenerate(1.0), Histogram(tuple(range(9)), _SKEWED, 20.0)),
    # large counts: every trial finite, divergences near 0
    (Degenerate(0.5), Histogram.uniform(8, total=1e6)),
    (Bernoulli(0.4, 0.2, 3.0), Histogram.uniform(50, total=2e3)),
    # a bin the prior leaves empty
    (Degenerate(2.0), Histogram(tuple(range(6)), (0.4, 0.0, 0.3, 0.2, 0.1), 400.0)),
    # noise far above the counts: some trials clip to a zero total
    (Degenerate(0.01), Histogram.uniform(4, total=1e-2)),
], ids=["holes", "large-counts", "fifty-bins", "empty-prior-bin", "zero-totals"])
@pytest.mark.parametrize("metric, alpha", [("kl", None), ("renyi", 0.5), ("renyi", 2.0)])
def test_divergence_estimate_matches_the_per_trial_loop(law, prior, metric, alpha):
    goal = UtilityGoal(metric, alpha=alpha, prior=prior)
    got = expected_metric_empirical(law, goal, trials=400, rng=np.random.default_rng(6))
    ref = _per_trial_divergence(law, goal, 400, 6)
    if math.isinf(ref):
        assert got == ref
    else:
        # only the order of the row sums differs
        assert abs(got - ref) <= max(1e-15, 1e-12 * abs(ref))


def test_transform_error_bound_identities():
    assert transform_error_bound(lambda b: b, singleton(Degenerate(2.0)), trials=10) == 0.5
    # E[e^{-gamma/b}] over the scale distribution is the mgf at -gamma
    combo = singleton(Gamma(2.0, 1.0))
    rng = np.random.default_rng(5)
    est = transform_error_bound(lambda b: math.exp(-0.8 / b), combo, trials=200_000, rng=rng)
    target = 1.0 - usefulness_bound(combo, 0.8)
    assert abs(est - target) < 0.003
    with pytest.raises(NonFiniteError):
        transform_error_bound(lambda b: math.inf, combo, trials=10)


def test_transform_error_bound_inverse_gamma_moment():
    combo = singleton(Gamma(3.0, 1.0))
    rng = np.random.default_rng(11)
    scales = combo.sample(rng, 200_000)
    vals = (1.0 / scales) ** 2
    se = vals.std() / math.sqrt(vals.size)
    est = transform_error_bound(
        lambda b: b * b, combo, trials=200_000, rng=np.random.default_rng(11)
    )
    assert abs(est - 0.5) < 3 * se  # E[(1/X)^2] = 1/((k-1)(k-2))


def test_utility_goal_validation():
    with pytest.raises(ValueError):
        UtilityGoal("nope")
    with pytest.raises(ValueError):
        UtilityGoal("usefulness")
    with pytest.raises(ValueError):
        UtilityGoal("mallows", p=0.5)
    with pytest.raises(ValueError):
        UtilityGoal("renyi", alpha=1.0)
    assert UtilityGoal("usefulness", gamma=0.1).higher_is_better
    assert not UtilityGoal("l2").higher_is_better
    assert UtilityGoal("kl").prior_dependent
    assert UtilityGoal("mallows", p=2.0).prior_dependent
    # mallows at p = 1 is E|noise|, a noise norm
    assert not UtilityGoal("mallows", p=1.0).prior_dependent


def test_mallows_p1_is_scored_without_a_prior():
    # scored as E|noise| from the same draws as l1, with or without a prior
    law = LinearCombo(((1.0, Bernoulli(0.3, 2.0, 20.0)),))
    l1 = expected_metric_empirical(law, UtilityGoal("l1"), trials=1000,
                                   rng=np.random.default_rng(4))
    for prior in (None, np.arange(5.0)):
        got = expected_metric_empirical(law, UtilityGoal("mallows", p=1.0, prior=prior),
                                        trials=1000, rng=np.random.default_rng(4))
        assert got == l1


def test_norm_power_names_the_goals_that_are_noise_norms():
    assert norm_power(UtilityGoal("l1")) == 1
    assert norm_power(UtilityGoal("l2")) == 2
    # mean |noise| over a vector's entries is E|noise| whatever the prior
    assert norm_power(UtilityGoal("mallows", p=1.0)) == 1
    assert norm_power(UtilityGoal("mallows", p=1.0, prior=np.arange(5.0))) == 1
    for goal in (UtilityGoal("mallows", p=2.0), UtilityGoal("mallows", p=1.5),
                 UtilityGoal("usefulness", gamma=0.1), UtilityGoal("kl"),
                 UtilityGoal("renyi", alpha=2.0)):
        assert norm_power(goal) is None


def test_histogram_validation_and_file_round_trip(tmp_path):
    with pytest.raises(ValueError):
        Histogram((0, 1), (0.5, 0.5))
    with pytest.raises(ValueError):
        Histogram((0, 1, 2), (0.9, 0.2))
    h = Histogram.uniform(5, total=100.0)
    path = tmp_path / "hist.txt"
    h.to_file(path)
    h2 = Histogram.from_file(path)
    assert h2.total == 100.0
    assert np.allclose(h2.masses, h.masses)
    assert np.allclose(h2.bin_edges, h.bin_edges)


_DIVERGENCE_PRIOR = Histogram.uniform(8, total=400.0)
_TWO_ATOM_GOALS = [
    UtilityGoal("mallows", p=2.0, prior=np.arange(10.0)),
    UtilityGoal("kl", prior=_DIVERGENCE_PRIOR),
    UtilityGoal("renyi", alpha=0.5, prior=_DIVERGENCE_PRIOR),
    UtilityGoal("renyi", alpha=2.0, prior=_DIVERGENCE_PRIOR),
]
_GOAL_IDS = ["mallows", "kl", "renyi-0.5", "renyi-2"]


def _law(w, x_lo, x_hi):
    law = Degenerate(x_lo) if w == 1.0 else Bernoulli(w, x_lo, x_hi)
    return LinearCombo(((1.0, law),))


@pytest.mark.parametrize("atoms", [(1.0, 2.0, 2.0), (0.3, 2.0, 20.0), (0.8, 0.5, 4.0)],
                         ids=["laplace", "wide", "narrow"])
@pytest.mark.parametrize("goal", _TWO_ATOM_GOALS, ids=_GOAL_IDS)
def test_two_atom_metric_agrees_with_the_release_sampler(goal, atoms):
    # unbiased: within 4 SE of expected_metric_empirical, which draws each
    # entry's scale independently through the release sampler; its SE comes
    # from 20 independent batches
    values = TwoAtomMetric(goal, 20_000, np.random.default_rng(11)).per_trial(*atoms)
    batches = [expected_metric_empirical(_law(*atoms), goal, trials=2000,
                                         rng=np.random.default_rng([12, i])) for i in range(20)]
    se = math.hypot(np.std(values) / math.sqrt(values.size),
                    np.std(batches, ddof=1) / math.sqrt(len(batches)))
    assert abs(np.mean(values) - np.mean(batches)) <= 4.0 * se


def _metric_of_noise(goal, noise):
    """The metric of each trial's noise, as expected_metric_empirical scores it."""
    if goal.metric == "mallows":
        return _mallows(noise, goal.p)
    masses = np.asarray(goal.prior.masses)
    noisy = np.clip(masses * goal.prior.total + noise, 0.0, None)
    totals = noisy.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = noisy / totals[:, None]
        vals = _kl(masses, q) if goal.metric == "kl" else _renyi(masses, q, goal.alpha)
    return np.where(totals > 0, vals, math.inf)


_EDGE_PRIORS = [
    # holes under the prior, an empty prior bin, and zero totals
    Histogram(tuple(range(9)), _SKEWED, 20.0),
    Histogram(tuple(range(6)), (0.4, 0.0, 0.3, 0.2, 0.1), 400.0),
    Histogram.uniform(4, total=1e-2),
]


@pytest.mark.parametrize("x", [0.01, 1.0, 8.0])
@pytest.mark.parametrize("goal", _TWO_ATOM_GOALS + [
    UtilityGoal(metric, alpha=alpha, prior=prior) for prior in _EDGE_PRIORS
    for metric, alpha in (("kl", None), ("renyi", 0.5), ("renyi", 2.0))
], ids=_GOAL_IDS + [f"{name}-{metric}" for name in ("holes", "empty-bin", "zero-totals")
                    for metric in ("kl", "renyi-0.5", "renyi-2")])
def test_two_atom_metric_at_one_atom_is_the_metric_of_its_draws(goal, x):
    # at w = 1 (every entry on x_lo) and w = 0 (every entry on x_hi) the
    # estimate is the plain metric of the noise laplace / x, column j of a
    # trial belonging to entry order[j]; both rebuilt from the seed in the
    # order the estimate draws them
    est = TwoAtomMetric(goal, 500, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    n = est._draws.shape[0]
    laplace = rng.laplace(size=(500, n))
    noise = laplace / x
    if goal.metric != "mallows":
        order = rng.permuted(np.tile(np.arange(n), (500, 1)), axis=1)
        np.put_along_axis(noise, order, laplace / x, axis=1)
    expected = float(np.mean(_metric_of_noise(goal, noise)))
    for got in (est(1.0, x, 3.0 * x), est(0.0, 3.0 * x, x)):
        if math.isinf(expected):
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("goal", _TWO_ATOM_GOALS + [
    UtilityGoal("kl", prior=_EDGE_PRIORS[0]), UtilityGoal("renyi", alpha=0.5, prior=_EDGE_PRIORS[2])],
    ids=_GOAL_IDS + ["holes-kl", "zero-totals-renyi-0.5"])
def test_two_atom_metric_in_chunks_of_trials_is_the_metric_in_one(goal, monkeypatch):
    # the sums run over chunks of trials; chunks of a few trials, the last
    # one short, give each trial the term that one chunk of all gives it
    est = TwoAtomMetric(goal, 301, np.random.default_rng(5))
    laws = [(1.0, 2.0, 2.0), (0.3, 0.5, 6.0), (0.0, 1.0, 4.0)]
    whole = [est.per_trial(*law) for law in laws]
    n = est._draws.shape[0]
    monkeypatch.setattr(utility_module, "_CHUNK_SUMS", 7 * (n + 1))
    for law, expected in zip(laws, whole):
        np.testing.assert_allclose(est.per_trial(*law), expected, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("goal", [UtilityGoal(metric, alpha=alpha, prior=_EDGE_PRIORS[2])
                                  for metric, alpha in (("kl", None), ("renyi", 0.5),
                                                        ("renyi", 2.0))]
                         + [UtilityGoal("kl", prior=Histogram.uniform(50, total=50.0))],
                         ids=["kl", "renyi-0.5", "renyi-2", "kl-50"])
def test_two_atom_metric_gives_no_weight_to_impossible_patterns(goal):
    # the atom with no weight scores +inf in every trial; a zero weight
    # times inf must not make nan
    est = TwoAtomMetric(goal, 200, np.random.default_rng(5))
    finite = est(1.0, 1e6, 1e6)
    assert math.isfinite(finite)
    assert math.isinf(est(1.0, 1e-6, 1e-6))
    # the x_hi terms are summed from the other end, so the last bits differ
    for got in (est(1.0, 1e6, 1e-6), est(0.0, 1e-6, 1e6)):
        assert got == pytest.approx(finite, rel=1e-12)
    # a hole under the prior is +inf for kl and alpha > 1, so any weight at
    # all on the atom that makes holes gives an infinite mean
    if goal.metric == "kl" or goal.alpha > 1.0:
        assert math.isinf(est(1e-300, 1e-6, 1e6))


def test_two_atom_metric_is_smooth_in_the_weight():
    # the draws never change, so the estimate is a polynomial in w: more
    # weight on the noisier atom raises it in steps that barely change
    goal = _TWO_ATOM_GOALS[1]
    est = TwoAtomMetric(goal, 400, np.random.default_rng(2))
    steps = np.diff([est(w, 2.0, 20.0) for w in np.linspace(0.2, 0.3, 11)])
    assert np.all(steps > 0) and np.ptp(steps) < 0.05 * np.max(steps)
    assert est(0.25, 2.0, 20.0) == TwoAtomMetric(goal, 400, np.random.default_rng(2))(0.25, 2.0, 20.0)
