import dataclasses
import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from dpcalib.distributions import (
    Bernoulli,
    Degenerate,
    Gamma,
    LinearCombo,
    MgfDist,
    TruncGaussian,
    Uniform,
    parse_combo,
    singleton,
)
from dpcalib.mechanisms import (
    Gaussian,
    Laplace,
    RandomizedResponse,
    Staircase,
    staircase_log_density,
)
from dpcalib import privacy
from dpcalib.optimize import SearchSpaceSpec, optimize
from dpcalib.privacy import (
    GridError,
    PrivacySpec,
    UnsupportedFamilyError,
    _auto_radius,
    density_grid_epsilon,
    epsilon_closed_form,
    epsilon_of_combo,
    passes_necessary_condition,
    rdp_of,
    verify_epsilon_empirically,
)
from dpcalib.utility import (
    Histogram,
    UtilityGoal,
    expected_metric_empirical,
    l1_bound,
    l2_bound,
    usefulness_bound,
)
from strategies import (
    committed_compound_laws,
    gamma_dists,
    product_rule_deriv,
    trunc_gaussian_dists,
    uniform_dists,
)


def test_privacy_spec_validation():
    PrivacySpec(1.0, 0.5)
    for eps, dq in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.inf, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            PrivacySpec(eps, dq)


def test_degenerate_epsilon_is_laplace():
    # point mass at 1/b0 gives exactly sensitivity / b0
    assert epsilon_of_combo(Degenerate(0.5), 1.0) == pytest.approx(0.5, abs=1e-15)
    for eps, dq in [(0.3, 0.7), (2.5, 1.3), (8.0, 0.1)]:
        d = Degenerate(eps / dq)
        assert epsilon_of_combo(d, dq) == pytest.approx(eps, rel=1e-14)
        assert epsilon_closed_form(d, dq) == pytest.approx(eps, rel=1e-14)


def test_gamma_epsilon_closed_form_values():
    assert epsilon_of_combo(Gamma(1.0, 1.0), 1.0) == pytest.approx(2 * math.log(2), rel=1e-13)
    assert epsilon_of_combo(Gamma(2.0, 0.5), 2.0) == pytest.approx(3 * math.log(2), rel=1e-13)


def test_bernoulli_epsilon_is_the_tight_density_ratio():
    # the two-point closed form must equal the exact density-ratio supremum,
    # which the grid verifier measures independently
    b = Bernoulli(0.5, 1.0, 2.0)
    eps = epsilon_of_combo(b, 1.0)
    expected = math.log(1.5) - math.log(0.5 * math.exp(-1.0) + 1.0 * math.exp(-2.0))
    assert eps == pytest.approx(expected, rel=1e-14)
    grid_eps = verify_epsilon_empirically(b, 1.0)
    assert grid_eps == pytest.approx(eps, abs=2e-3)
    assert grid_eps <= eps + 1e-6
    # the mean of e^{eps(b)} is a strictly looser bound for genuine mixtures
    assert eps < math.log(0.5 * math.e + 0.5 * math.e**2)


def test_uniform_epsilon_closed_form_sign_convention():
    # alpha^2 - beta^2 and the mass term are both negative; the ratio is the
    # positive quantity the general route produces
    u = Uniform(0.5, 9.0)
    closed = epsilon_closed_form(u, 1.2)
    general = epsilon_of_combo(u, 1.2)
    assert closed > 0
    assert closed == pytest.approx(general, rel=1e-12)


@pytest.mark.parametrize("dq", [0.1, 0.7, 1.0, 2.5])
@given(dist=st.one_of(
    st.builds(Degenerate, value=st.floats(0.01, 50.0)),
    st.builds(Bernoulli, p=st.floats(0.0, 1.0), x0=st.floats(0.01, 20.0), x1=st.floats(0.01, 20.0)),
    gamma_dists(),
    uniform_dists(),
    trunc_gaussian_dists(),
))
def test_closed_form_agrees_with_general(dq, dist):
    closed = epsilon_closed_form(dist, dq)
    general = epsilon_of_combo(dist, dq)
    assert abs(closed - general) <= 1e-9 * (1.0 + abs(general))


@dataclass(frozen=True)
class _PointMassStub(MgfDist):
    """A point mass at 2 that is not one of the known families."""

    def mgf(self, t):
        return np.exp(2.0 * np.asarray(t, float))

    def mgf_deriv(self, t):
        return 2.0 * np.exp(2.0 * np.asarray(t, float))

    def log_mgf_and_mean(self, t):
        t = np.asarray(t, float)
        return 2.0 * t, np.full_like(t, 2.0)

    def mean(self) -> float:
        return 2.0

    def sample(self, rng, size=None):
        return 2.0 if size is None else np.full(size, 2.0)


def test_closed_form_unsupported_families():
    with pytest.raises(UnsupportedFamilyError, match="_PointMassStub"):
        epsilon_closed_form(_PointMassStub(), 1.0)
    # the general formula still covers it: a point mass at 2 is Laplace(1/2)
    assert epsilon_of_combo(_PointMassStub(), 1.0) == pytest.approx(2.0, rel=1e-15)


def test_epsilon_monotone_in_sensitivity():
    combo = LinearCombo(((0.5, Gamma(2.0, 1.0)), (0.5, Uniform(0.0, 2.0))))
    values = [epsilon_of_combo(combo, dq) for dq in (0.2, 0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_epsilon_positive_for_valid_inputs():
    for combo in [singleton(Gamma(0.3, 5.0)), singleton(Uniform(0.0, 0.1)),
                  singleton(TruncGaussian(-1.0, 2.0, 0.0, 3.0))]:
        assert epsilon_of_combo(combo, 1.0) > 0


def test_necessary_condition_gamma_threshold():
    # theta = 1/(2 dq): passes exactly when shape > ln(1.5)/ln(4/3)
    for dq in (0.5, 1.0, 2.0):
        theta = 1.0 / (2.0 * dq)
        assert passes_necessary_condition(Gamma(1.4104, theta), dq)
        assert not passes_necessary_condition(Gamma(1.4084, theta), dq)
    # shape 1 calibrated by (shape + 1) ln(1 + dq theta) = eps: passes at
    # eps = 1.2, fails at eps = 2 (no MGF at +1 for theta = e - 1)
    assert passes_necessary_condition(Gamma(1.0, math.expm1(0.6)), 1.0)
    assert not passes_necessary_condition(Gamma(1.0, math.expm1(1.0)), 1.0)


def test_necessary_condition_uniform_witness():
    assert passes_necessary_condition(Uniform(0.5, 9.0), 1.2)


def test_necessary_condition_trunc_gaussian_witness():
    dist = TruncGaussian(0.5223, 1.5454, 0.5223, math.inf)
    log_m = math.log(dist.mgf(0.6))
    assert passes_necessary_condition(dist, 0.6)
    assert log_m == pytest.approx(1.2417, abs=1e-3)
    assert log_m > 1.1703
    assert log_m > epsilon_of_combo(dist, 0.6)


def test_necessary_condition_divergent_moment_is_false():
    # gamma scale 2 has no MGF at +1, so the bound is vacuous
    assert not passes_necessary_condition(Gamma(2.0, 2.0), 1.0)


def test_necessary_condition_degenerate_bypass():
    # a point mass is the Laplace mechanism, where equality holds
    assert passes_necessary_condition(Degenerate(2.0), 1.0)


@pytest.mark.parametrize("sensitivity", [0.0, -1.0, math.nan, math.inf])
def test_necessary_condition_refuses_a_bad_sensitivity(sensitivity):
    # epsilon is computed first, so even a point mass is checked
    with pytest.raises(ValueError, match="sensitivity must be finite and > 0"):
        passes_necessary_condition(Degenerate(2.0), sensitivity)


def test_rdp_laplace_values():
    lap = Laplace(1.0)
    assert rdp_of(lap, 1.0).epsilon_rdp == pytest.approx(math.exp(-1.0), abs=1e-15)
    # closed form at alpha = 2, b = 1: ln[(2 e + e^-2)/3]
    expected = math.log((2 * math.e + math.exp(-2.0)) / 3.0)
    assert rdp_of(lap, 2.0).epsilon_rdp == pytest.approx(expected, rel=1e-14)
    # converges to the pure-DP epsilon as alpha grows
    assert rdp_of(lap, 1e6).epsilon_rdp == pytest.approx(1.0, abs=1e-3)


def test_rdp_gaussian_and_randomized_response():
    assert rdp_of(Gaussian(1.0), 2.0).epsilon_rdp == 1.0
    assert rdp_of(Gaussian(2.0), 5.0).epsilon_rdp == pytest.approx(5.0 / 8.0)
    rr = RandomizedResponse(0.75)
    expected = math.log(0.75**3 * 0.25**-2 + 0.75**-2 * 0.25**3) / 2.0
    assert rdp_of(rr, 3.0).epsilon_rdp == pytest.approx(expected, rel=1e-12)
    assert rdp_of(rr, 1.0).epsilon_rdp == pytest.approx(0.5 * math.log(3.0), rel=1e-12)


def test_rdp_degenerate_combo_reduces_to_laplace():
    combo = singleton(Degenerate(1.0))
    lap = Laplace(1.0)
    for alpha in (1.0, 1.5, 2.0, 5.0, 10.0, 100.0):
        a = rdp_of(combo, alpha).epsilon_rdp
        b = rdp_of(lap, alpha).epsilon_rdp
        assert a == pytest.approx(b, rel=1e-12)


def test_rdp_compound_large_order_stays_finite():
    # M(dq (alpha - 1)) = e^1890 overflows in linear space; the log-MGF does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deg = rdp_of(singleton(Degenerate(30.0)), 64.0).epsilon_rdp
        lap = rdp_of(Laplace(1.0 / 30.0), 64.0).epsilon_rdp
        two = rdp_of(singleton(Bernoulli(0.3, 2.0, 50.0)), 64.0).epsilon_rdp
    assert deg == pytest.approx(lap, rel=1e-12)
    assert deg == pytest.approx(29.989122, rel=1e-6)
    assert math.isfinite(two) and two < 50.0


@pytest.mark.parametrize("law,alpha,expected", [
    # mpmath values of the compound RDP bound at unit sensitivity
    (Uniform(0.05, 12.05), 16.0, 11.6597096444576),
    (Uniform(0.05, 12.05), 64.0, 11.9339151527099),
    (Uniform(0.05, 12.05), 200.0, 12.007442937061),
    (TruncGaussian(1.0, 0.8, 0.05), 16.0, 5.76424101759564),
    (TruncGaussian(1.0, 0.8, 0.05), 64.0, 21.1511065038584),
    (TruncGaussian(1.0, 0.8, 0.05), 200.0, 64.6771576366625),
], ids=lambda v: f"{v}" if isinstance(v, float) else v.family)
def test_rdp_uniform_and_trunc_gaussian_stay_finite(law, alpha, expected):
    # M(alpha - 1) overflows long before ln M does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = privacy._scale_released_rdp(law, alpha, 1.0)
        capped = rdp_of(law, alpha).epsilon_rdp
    assert value == pytest.approx(expected, rel=1e-9)
    # each bound lies above the law's epsilon, so rdp_of reads epsilon
    assert capped == epsilon_of_combo(law, 1.0) < value


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
def test_rdp_of_an_unbounded_moment_is_the_pure_dp_cap(alpha):
    # M(alpha - 1) does not exist for Gamma(2, 1) at alpha >= 2, and for
    # Gamma(1, 1): the scale-releasing bound is unbounded, the cap is not
    for law in (Gamma(2.0, 1.0), singleton(Gamma(1.0, 1.0))):
        eps = epsilon_of_combo(law, 1.0)
        assert math.isinf(privacy._scale_released_rdp(law, alpha, 1.0))
        assert rdp_of(law, alpha).epsilon_rdp == min(eps, alpha * eps * eps / 2.0) == eps


def test_rdp_of_a_compound_law_is_capped_by_its_epsilon():
    # the eps = 5 usefulness law's scale-releasing bound is far above eps
    law = singleton(Bernoulli(0.29987165324922693, 1.1624574486109833, 22.609896707280328))
    eps = epsilon_of_combo(law, 1.0)
    assert abs(eps - 5.0) < 1e-9
    for alpha in (1.0, 2.0, 16.0, 64.0):
        assert privacy._scale_released_rdp(law, alpha, 1.0) > 15.0
        assert rdp_of(law, alpha).epsilon_rdp == eps
    # where alpha eps^2 / 2 < eps, zCDP's bound wins: a small-epsilon law
    small = singleton(Bernoulli(0.3, 0.02, 0.4))
    eps = epsilon_of_combo(small, 1.0)
    for alpha in (1.0, 1.5, 2.0):
        assert alpha * eps * eps / 2.0 < eps
        assert rdp_of(small, alpha).epsilon_rdp <= alpha * eps * eps / 2.0


def test_rdp_sensitivity_rescaling():
    a = rdp_of(Laplace(2.0), 4.0, sensitivity=2.0).epsilon_rdp
    b = rdp_of(Laplace(1.0), 4.0).epsilon_rdp
    assert a == pytest.approx(b, rel=1e-14)
    c = rdp_of(singleton(Degenerate(0.5)), 4.0, sensitivity=2.0).epsilon_rdp
    assert c == pytest.approx(b, rel=1e-12)


def test_rdp_alpha_validation():
    with pytest.raises(ValueError):
        rdp_of(Laplace(1.0), 0.5)


def test_grid_epsilon_matches_closed_form():
    assert verify_epsilon_empirically(Degenerate(1.0), 1.0) == pytest.approx(1.0, abs=1e-3)
    assert verify_epsilon_empirically(Gamma(1.0, 1.0), 1.0) == pytest.approx(
        2 * math.log(2), abs=2e-3
    )


@pytest.mark.parametrize(
    "combo",
    [
        singleton(Gamma(2.0, 0.7)),
        singleton(Uniform(0.3, 4.0)),
        singleton(TruncGaussian(1.0, 1.0, 0.2, 5.0)),
        LinearCombo(((0.6, Gamma(3.0, 0.5)), (0.4, Uniform(0.0, 2.0)))),
    ],
)
def test_grid_epsilon_never_exceeds_closed_form(combo):
    closed = epsilon_of_combo(combo, 1.0)
    grid = verify_epsilon_empirically(combo, 1.0)
    assert grid <= closed + 1e-6
    assert grid >= closed - 2e-3


@pytest.mark.parametrize("step", [0.0, -1e-3, math.inf, math.nan])
def test_verify_rejects_a_step_that_is_not_finite_and_positive(step):
    with pytest.raises(ValueError, match="step"):
        verify_epsilon_empirically(Degenerate(1.0), 1.0, step=step)


@pytest.mark.parametrize("value", [0.0, math.inf, math.nan, -1.0])
def test_every_epsilon_route_refuses_a_size_that_is_not_finite_and_positive(value):
    # inf would halve an infinite radius forever, and 0 divide by zero
    for route in (epsilon_of_combo, epsilon_closed_form, verify_epsilon_empirically):
        with pytest.raises(ValueError, match="sensitivity must be finite and > 0"):
            route(Gamma(2.0, 1.0), value)
    with pytest.raises(ValueError, match="shift must be finite and > 0"):
        density_grid_epsilon(np.negative, value, 5.0, 1e-3)
    with pytest.raises(ValueError, match="step must be finite and > 0"):
        density_grid_epsilon(np.negative, 1.0, 5.0, value)


def test_density_grid_error_when_the_ratio_is_nowhere_finite():
    with pytest.raises(GridError, match="nowhere finite"):
        density_grid_epsilon(lambda xs: np.full(np.shape(xs), np.nan), 1.0, 5.0, 1e-3)


def test_density_grid_caps_the_points_for_any_step():
    # Laplace with b = 1 at step 2e-7 takes the bounded fallback radius 0.4:
    # 2e6 + 5e6 + 1 radial points, over the 4e6 cap.  The grid is refused
    # before the log-density sees a single point.
    def log_density(xs):
        raise AssertionError("the grid was built")

    with pytest.raises(GridError, match="cap"):
        density_grid_epsilon(log_density, 1.0, 0.4, 2e-7)
    with pytest.raises(GridError, match="cap"):
        verify_epsilon_empirically(Degenerate(1.0), 1.0, step=2e-7)


# The 3-term default ensemble as calibrated to epsilon 1 at sensitivity 1.
ENSEMBLE = parse_combo(
    "0.11006938022104956 gamma shape=4.0 scale=0.22140275816016983; "
    "0.11006938022104956 uniform lo=0.05000000000000001 hi=12.05; "
    "0.11006938022104956 trunc_gaussian mu=1.0 sigma=0.8 lo=0.05000000000000001 "
    "hi=25.049999999999997"
)
GRID_LAWS = [
    singleton(Degenerate(1.0)),  # Laplace with b = 1
    singleton(Bernoulli(0.5, 1.0, 2.0)),
    ENSEMBLE,
    singleton(TruncGaussian(0.0, 0.1, 1.0)),
]


def _compound_log_density(combo):
    def log_density(xs):
        with np.errstate(divide="ignore"):
            return np.log(combo.mgf_deriv(-np.abs(xs)))
    return log_density


def _reference_grid_epsilon(log_density, shift, radius, step):
    # brute force on the signed grid, two evaluations per point
    xs = np.arange(-radius, shift + radius + step, step)
    xs = np.unique(np.concatenate([xs, [0.0, shift]]))
    diff = log_density(xs) - log_density(xs - shift)
    return float(np.max(np.abs(diff[np.isfinite(diff)])))


@pytest.mark.parametrize("combo", GRID_LAWS)
@pytest.mark.parametrize("radius", [30.0, 0.5])
def test_density_grid_matches_signed_reference(combo, radius):
    ld = _compound_log_density(combo)
    got = density_grid_epsilon(ld, 1.0, radius, 1e-3)
    assert got == pytest.approx(_reference_grid_epsilon(ld, 1.0, radius, 1e-3), abs=1e-12)


@pytest.mark.parametrize("eps", [0.8, 1.5, 3.0])
@pytest.mark.parametrize("radius", [40.0, 0.5])
def test_staircase_density_grid_matches_signed_reference(eps, radius):
    mech = Staircase(eps, 1.0)
    ld = lambda xs: staircase_log_density(mech, xs)  # noqa: E731
    got = density_grid_epsilon(ld, 1.0, radius, 1e-3)
    assert got == pytest.approx(_reference_grid_epsilon(ld, 1.0, radius, 1e-3), abs=1e-12)
    assert abs(got - eps) <= 1e-9


@pytest.mark.parametrize("shift, step", [(1.0, 1e-3), (0.7, 1e-3), (1.0, 0.25)])
def test_density_grid_matches_reference_off_monotone_densities(shift, step):
    # an even log-density of period shift in |x|: every pair outside [0, shift]
    # gives 0, so the sup comes from the pairs inside it, unlike for the
    # decreasing compound densities
    ld = lambda xs: np.sin(2.0 * math.pi * np.abs(xs) / shift)  # noqa: E731
    got = density_grid_epsilon(ld, shift, 4.0, step)
    assert got == pytest.approx(_reference_grid_epsilon(ld, shift, 4.0, step), abs=1e-12)


@pytest.mark.parametrize("shift, radius, step", [(1.0, 5.0, 0.3), (0.7, 3.0, 1e-3),
                                                 (1.0, 0.5, 1e-3),
                                                 (1.0, 100.0, 1e-3)])  # several blocks
def test_density_grid_evaluates_each_radial_point_once(shift, radius, step):
    calls = []

    def log_density(xs):  # Laplace with b = 1, recording what it is asked for
        calls.append(np.array(xs, float))
        return -np.abs(xs)

    assert density_grid_epsilon(log_density, shift, radius, step) == pytest.approx(
        shift, rel=1e-12)
    # one call per block of at most _GRID_BLOCK points, the blocks in order
    xs = np.concatenate(calls)
    assert len(calls) == math.ceil(xs.size / privacy._GRID_BLOCK)
    assert all(c.size == privacy._GRID_BLOCK for c in calls[:-1])
    k = math.ceil(shift / step)
    h = shift / k
    m = math.ceil(radius / h)
    assert xs.size == m + k + 1
    assert np.array_equal(xs, h * np.arange(m + k + 1))  # each radial point once
    assert np.all(xs >= 0.0)
    # spacing never coarser than step; 0 and shift on the grid; [-radius, shift + radius]
    # covered, since the negative half mirrors the radial points
    assert xs[0] == 0.0 and xs[1] <= step
    assert np.allclose(np.diff(xs), xs[1], rtol=0.0, atol=1e-12)
    assert xs[k] == pytest.approx(shift, abs=1e-12)
    assert xs[m] >= radius - 1e-12 and xs[-1] >= shift + radius - 1e-12


@pytest.mark.parametrize("combo", GRID_LAWS)
def test_grid_epsilon_hits_the_closed_form(combo):
    # x = 0 is always on the grid, and the log-ratio peaks there
    assert abs(verify_epsilon_empirically(combo, 1.0) - epsilon_of_combo(combo, 1.0)) <= 1e-9


def _power_of_two_radius(combo, step, dq):
    # the automatic radius without the shrink, doubling from the start
    # radius until the tail mass is met, and whether it fell back
    fallback = min(8.0 * dq + 16.0 / max(combo.mean(), 1e-9), 4e6 * step / 2.0)
    r = max(1.0, 2.0 * dq)
    while combo.mgf(-r) > 1e-9:
        r *= 2.0
        if r > 1e7 or (2.0 * r + dq) / step > 4e6:
            return fallback, True
    return r, False


def _criterion5_laws():
    # the usefulness laws of the criterion-5 grid, as its acceptance test builds them
    return [
        (optimize(SearchSpaceSpec(), PrivacySpec(eps, dq),
                  UtilityGoal("usefulness", gamma=gamma), seed=500).combo, dq)
        for eps in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0)
        for dq in (0.5, 1.0)
        for gamma in (0.1, 0.4, 0.6, 0.9)
    ]


AUDITED_LAWS = [(combo, 1.0) for combo in committed_compound_laws().values()] + [
    (singleton(Degenerate(1.0)), 1.0),
    (singleton(Gamma(1.0, 1.0)), 1.0),
    (ENSEMBLE, 0.5),
]


def _whole_grid_epsilon(combo, dq, radius, step=1e-3):
    # the grid's sup from one log_mgf_deriv call on all its radial points
    k = math.ceil(dq / step)
    h = dq / k
    m = math.ceil(radius / h)
    ld = combo.log_mgf_deriv(-(h * np.arange(m + k + 1)))
    diffs = np.abs(np.concatenate([ld[:m + 1] - ld[k:], ld[:k + 1] - ld[k::-1]]))
    return float(np.max(diffs[np.isfinite(diffs)]))


@pytest.mark.parametrize("combo, dq", AUDITED_LAWS + [(combo, 1.0) for combo in GRID_LAWS])
def test_blocked_audit_is_bitwise_the_whole_grid(combo, dq):
    want = _whole_grid_epsilon(combo, dq, _auto_radius(combo, 1e-3, dq))
    assert verify_epsilon_empirically(combo, dq).hex() == want.hex()


@pytest.mark.parametrize("blocks", [1.0, 1.0 + 1e-9, 3.2])
@pytest.mark.parametrize("combo", [ENSEMBLE, committed_compound_laws()["compound_bernoulli"]])
def test_blocked_grid_is_bitwise_the_whole_grid_at_block_edges(combo, blocks):
    # grids of exactly one block, one block and one point, and 3.2 blocks
    n = math.ceil(blocks * privacy._GRID_BLOCK)
    radius = (n - 1001 - 0.5) * 1e-3  # m + k + 1 = n radial points, k = 1000

    def log_density(xs):
        return combo.log_mgf_deriv(np.negative(xs, out=xs))

    got = density_grid_epsilon(log_density, 1.0, radius, 1e-3)
    assert got.hex() == _whole_grid_epsilon(combo, 1.0, radius).hex()


def _ulps_of(got, want):
    """|got - want| in ulps of max(1, |want|)."""
    return np.abs(got - want) / np.spacing(np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("combo, dq", [(combo, 1.0) for combo in GRID_LAWS] + AUDITED_LAWS
                         + _criterion5_laws() + [
    # multi-term combinations with two-atom and point-mass terms
    (LinearCombo(((0.5, Gamma(2.0, 1.0)), (1.5, Bernoulli(0.3, 0.5, 2.0)))), 1.0),
    (LinearCombo(((0.2, TruncGaussian(0.5, 1.0, 0.0)), (0.6, Degenerate(0.3)),
                  (0.4, Uniform(0.0, 2.0)))), 0.5),
])
def test_log_kernels_match_the_linear_route_on_the_audit_grid(combo, dq):
    # on the radial points verify reads, ln M' agrees with the log of the
    # product rule's M' within 4 ulp of max(1, |ln M'|), for the law and
    # for each of its terms, wherever that M' is a normal number; ln M
    # does too, and the tilted mean is within 2e-15 of M'/M
    k = math.ceil(dq / 1e-3)
    xs = dq / k * np.arange(math.ceil(_auto_radius(combo, 1e-3, dq) * k / dq) + k + 1)
    tiny = np.finfo(float).tiny
    for a, law in [(1.0, combo)] + list(combo.terms):
        t = -a * xs
        deriv = product_rule_deriv(law, t)
        m = law.mgf(t)
        normal = (deriv >= tiny) & (m >= tiny)
        assert normal.sum() > xs.size // 2
        got = law.log_mgf_deriv(t)
        assert np.max(_ulps_of(got[normal], np.log(deriv[normal]))) <= 4
        log_m, mean = law.log_mgf_and_mean(t)
        assert np.max(_ulps_of(log_m[normal], np.log(m[normal]))) <= 4
        want_mean = deriv[normal] / m[normal]
        assert np.max(np.abs(mean[normal] - want_mean) / want_mean) <= 2e-15


@pytest.mark.parametrize("law, t, want", [
    # ln 800 - 800; the linear route reads ln 0 = -inf
    (Degenerate(800.0), -1.0, math.log(800.0) - 800.0),
    (singleton(Degenerate(400.0), 2.0), -1.0, math.log(800.0) - 800.0),
    # the lower atom's term, plus the upper's share e^-100 ln-added
    (Bernoulli(0.3, 800.0, 900.0), -1.0,
     math.log(240.0) - 800.0 + math.log1p(630.0 / 240.0 * math.exp(-100.0))),
    # e^-800 (lo R + w R'), R = expm1(-100)/-100 and R' = (s e^s - expm1(s))/s^2
    (Uniform(800.0, 900.0), -1.0,
     -800.0 + math.log(800.0 * -math.expm1(-100.0) / 100.0
                       + 100.0 * (-100.0 * math.exp(-100.0) - math.expm1(-100.0)) / 1e4)),
])
def test_log_mgf_deriv_stays_finite_where_m_prime_underflows(law, t, want):
    with np.errstate(under="ignore"):
        assert law.mgf_deriv(t) == 0.0
    got = law.log_mgf_deriv(t)
    assert abs(got - want) <= 4 * np.spacing(abs(want))
    # and in an array, where the grid reads it
    assert law.log_mgf_deriv(np.array([t]))[0] == got


@pytest.mark.parametrize("law", [Bernoulli(0.3, 0.5, 2.0), Bernoulli(0.3, 40.0, 2.5),
                                 Uniform(0.25, 3.0), Uniform(0.0, 2.0)],
                         ids=lambda law: repr(law))
def test_log_kernels_factor_out_the_upper_end_at_positive_t(law):
    # where t > 0 the upper atom or end carries the sum: against 50-digit
    # values, both where M' is finite and far past exp's overflow
    mpmath = pytest.importorskip("mpmath")
    ts = np.array([-3.0, -0.5, 0.0, 0.5, 3.0, 40.0, 900.0])

    def exact(t):
        with mpmath.workdps(50):
            t = mpmath.mpf(t)
            if isinstance(law, Bernoulli):
                atoms = ((law.p, law.x0), (1 - mpmath.mpf(law.p), law.x1))
                m = sum(w * mpmath.exp(t * x) for w, x in atoms)
                d = sum(w * x * mpmath.exp(t * x) for w, x in atoms)
            else:
                lo, hi = mpmath.mpf(law.lo), mpmath.mpf(law.hi)
                m = mpmath.quad(lambda x: mpmath.exp(t * x), [lo, hi]) / (hi - lo)
                d = mpmath.quad(lambda x: x * mpmath.exp(t * x), [lo, hi]) / (hi - lo)
            return float(mpmath.log(d)), float(mpmath.log(m)), float(d / m)

    want = np.array([exact(t) for t in ts])
    log_m, mean = law.log_mgf_and_mean(ts)
    assert np.max(_ulps_of(law.log_mgf_deriv(ts), want[:, 0])) <= 4
    assert np.max(_ulps_of(log_m, want[:, 1])) <= 4
    assert np.max(np.abs(mean - want[:, 2]) / want[:, 2]) <= 2e-15


@pytest.mark.parametrize("combo, dq", AUDITED_LAWS)
def test_auto_radius_is_near_the_smallest_covering_radius(combo, dq):
    old, fell_back = _power_of_two_radius(combo, 1e-3, dq)
    got = _auto_radius(combo, 1e-3, dq)
    if fell_back:  # the fallback is unchanged
        assert got == old
        return
    assert combo.mgf(-got) <= 1e-9
    assert combo.mgf(-old / 2.0) > 1e-9  # doubling ran, so the minimum is in (old/2, old]
    r_min = brentq(lambda r: math.log(combo.mgf(-r)) - math.log(1e-9), old / 2.0, old,
                   xtol=1e-12, rtol=1e-15)
    assert got <= (1.0 + 1.0 / 32.0) * r_min
    assert got <= old


@pytest.mark.parametrize("combo, dq", AUDITED_LAWS + _criterion5_laws() + [
    (singleton(Degenerate(1e300)), 1.0),  # covered below every rung read first
    (singleton(Degenerate(1e6)), 1e-6),
])
def test_auto_radius_is_the_first_covered_point_of_its_scan(combo, dq):
    # R covers the tail mass and R(1 - 2^-6) does not: M(-R) decreases in
    # R, and R(1 - 2^-6) lies at or below the scan's point before R
    if _power_of_two_radius(combo, 1e-3, dq)[1]:
        return  # a fallback leaves more than the tail mass uncovered
    got = _auto_radius(combo, 1e-3, dq)
    assert combo.mgf(-got) <= 1e-9 < combo.mgf(-got * (1.0 - 2.0 ** -6))


def _bisection_radius(combo, step, dq):
    # the radius as a step-by-step search finds it: the first covered rung
    # r0 2^j, then six bisections of (r/2, r] keeping the covered end
    def covered(r):
        return combo.mgf(-r) <= 1e-9

    hi, fell_back = _power_of_two_radius(combo, step, dq)
    if fell_back:
        return hi
    while covered(hi / 2.0):
        hi /= 2.0
    lo = hi / 2.0
    for _ in range(6):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if covered(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("dq", [0.5, 1.0, 3.0, 300.0])  # r0 = 1, 2, 6, 600
@pytest.mark.parametrize("combo", [combo for combo, _ in AUDITED_LAWS]
                         + [singleton(Degenerate(1e300))])
def test_auto_radius_matches_a_bisection_search(combo, dq):
    # where r0 has a short mantissa, the evenly spaced points of (r/2, r]
    # are exactly the midpoints bisection builds
    got = _auto_radius(combo, 1e-3, dq)
    assert got.hex() == _bisection_radius(combo, 1e-3, dq).hex()
    if not _power_of_two_radius(combo, 1e-3, dq)[1]:
        assert combo.mgf(-got) <= 1e-9 < combo.mgf(-got * (1.0 - 2.0 ** -6))


def test_auto_radius_shrinks_below_its_start_radius():
    # the start radius max(1, 2 dq) is 4.9x the smallest covering radius
    # ln(1e9)/100 of this law
    r_min = math.log(1e9) / 100.0
    got = _auto_radius(Degenerate(100.0), 1e-3, 1.0)
    assert r_min <= got <= (1.0 + 2.0 ** -6) * r_min


@pytest.mark.parametrize("value, dq", [(1e6, 1e-6), (1e7, 1e-7)])
def test_large_point_mass_verifies_at_small_sensitivity(value, dq):
    # Laplace at eps = 1 with a covering radius of about 2e-5 and 2e-6: on a
    # radius of order 1, M' is subnormal at the grid's edge, and at
    # dq = 1e-7 the grid would pass the point cap
    got = verify_epsilon_empirically(Degenerate(value), dq)
    assert abs(got - 1.0) <= 1e-9


@pytest.mark.parametrize("value", [800.0, 1e7])
def test_grid_reads_the_epsilon_of_a_law_whose_density_underflows(value):
    # Laplace at epsilon = value: M'(-x) = value e^(-value x) underflows
    # before x = 1 = sensitivity.  Read in log space, every pair of the grid
    # is finite and the log-ratio is value; through the log of M', the
    # pairs past the underflow dropped out, and the grid read 689.24 at
    # 800 and had no finite pair at 1e7
    got = verify_epsilon_empirically(Degenerate(value), 1.0)
    assert abs(got - value) <= 1e-12 * value


@pytest.mark.parametrize("law, grid", [
    (Degenerate(800.0), 800.0),
    (Bernoulli(0.5, 800.0, 900.0), 800.7537718023764),
    (TruncGaussian(800.0, 1.0, 790.0, 810.0), 799.5012507819017),
])
def test_every_route_reads_an_epsilon_past_745(law, grid):
    # M'(-1) underflows to 0, so ln M'(-1) is read in log space: the general
    # route and the closed form meet the grid, where they read inf (and the
    # last two closed forms raised) when they took the log of M'(-1)
    assert law.mgf_deriv(-1.0) == 0.0
    for route in (epsilon_of_combo, epsilon_closed_form, verify_epsilon_empirically):
        assert abs(route(law, 1.0) - grid) <= 1e-12 * grid


@pytest.mark.parametrize("combo, dq", AUDITED_LAWS + [(combo, 1.0) for combo in GRID_LAWS])
def test_epsilon_of_a_normal_derivative_keeps_its_bits(combo, dq):
    # where M'(-dq) is a normal double its log is taken directly, as before
    deriv = combo.mgf_deriv(-dq)
    assert deriv >= np.finfo(float).tiny
    want = math.log(combo.mean()) - math.log(deriv)
    assert epsilon_of_combo(combo, dq).hex() == want.hex()


def test_ensemble_audit_memory_is_bounded():
    # the grid is read in blocks, so the 245,001-point audit's peak traced
    # memory is the grid's own arrays plus one block's work (45.8 MiB when
    # the kernels ran on the whole grid at once)
    verify_epsilon_empirically(ENSEMBLE, 1.0)  # imports and first-call work
    tracemalloc.start()
    try:
        verify_epsilon_empirically(ENSEMBLE, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_deep_tail_epsilon_matches_mpmath():
    # perfbench's deep_tail law, TruncGaussian(0, 0.1, 1) at sensitivity 1:
    # 40-digit mpmath gives epsilon = 1.0098550563442927, and the general
    # and density-grid routes both land within 1e-15 of it
    law = committed_compound_laws()["deep_tail"]
    for eps in (epsilon_of_combo(law, 1.0), verify_epsilon_empirically(law, 1.0)):
        assert abs(eps - 1.0098550563442927) <= 1e-15


NARROW_TAIL_LAWS = pytest.mark.parametrize("law", [
    TruncGaussian(-143668.88420564317, 32918.30615103151, 1.352114344842097e-07, 1.508136386835856e-07),
    TruncGaussian(-143668.88, 32918.30, 1.352e-07, 1.508e-07),
], ids=["unrounded", "rounded"])


@NARROW_TAIL_LAWS
def test_narrow_tail_window_is_refused_not_understated(law):
    # 5e-13 sigma wide and 4.4 sigma into a tail, this window is beyond
    # the truncated Gaussian's kernel.  Any law on [lo, hi] has epsilon in
    # [lo, hi] at sensitivity 1, so a finite value must lie there
    eps = epsilon_of_combo(law, 1.0)
    assert eps == math.inf or law.lo <= eps <= law.hi
    assert math.isnan(law.mean()) or law.lo <= law.mean() <= law.hi


@NARROW_TAIL_LAWS
def test_unresolvable_law_is_refused_before_the_grid(law, monkeypatch):
    # the kernel reads this law's mean as nan, so no grid can audit it:
    # verify refuses it without searching a radius or building a grid
    def no_grid(*args):
        raise AssertionError("the density grid was built")

    monkeypatch.setattr(privacy, "_auto_radius", no_grid)
    monkeypatch.setattr(privacy, "density_grid_epsilon", no_grid)
    with pytest.raises(GridError, match="mean is nan"):
        verify_epsilon_empirically(law, 1.0)


@pytest.mark.parametrize("law", [
    TruncGaussian(-143668.88420564317, 32918.30615103151, 1.352114344842097e-07,
                  1.508136386835856e-07),  # refused at every t below
    TruncGaussian(1.0 - 2e5, 1e5, 1.0, 2.0),  # 1e-5 sigma wide: refused at some
])
def test_refused_trunc_gaussian_points_read_nan_in_log_space(law):
    # a point the kernel refuses (ln M or the tilted mean nan) reads nan
    # as ln M', alone and as a term of a combination; the others are finite
    ts = -np.geomspace(1e-3, 1e9, 241)
    log_m, mean = law.log_mgf_and_mean(ts)
    refused = np.isnan(log_m) | np.isnan(mean)
    assert refused.sum() >= 50
    combo = LinearCombo(((1.0, law), (0.5, Gamma(2.0, 1.0))))
    for got in (law.log_mgf_deriv(ts), singleton(law, 2.0).log_mgf_deriv(ts / 2.0),
                combo.log_mgf_deriv(ts)):
        assert np.array_equal(np.isnan(got), refused)
        assert np.all(np.isfinite(got[~refused]))


@pytest.mark.parametrize("near", [0.0, 2.0, 20.0])
@pytest.mark.parametrize("width", [1e-3, 1e-5, 1e-7])
def test_narrow_trunc_gaussian_epsilon_is_accurate_or_refused(near, width):
    # a window `width` sigma wide on [1, 2], its near end `near` sigma
    # above mu: epsilon is within 1e-7 of the closed form at 60 digits,
    # or inf where the kernel cannot resolve it
    mpmath = pytest.importorskip("mpmath")
    sigma = 1.0 / width
    law = TruncGaussian(1.0 - near * sigma, sigma, 1.0, 2.0)
    with mpmath.workdps(60):
        mu, s = mpmath.mpf(law.mu), mpmath.mpf(law.sigma)

        def mass_and_mean(t):
            a, b = (law.lo - mu) / s - s * t, (law.hi - mu) / s - s * t
            mass = mpmath.ncdf(-a) - mpmath.ncdf(-b) if a >= 0 else mpmath.ncdf(b) - mpmath.ncdf(a)
            shift = mpmath.exp(mu * t + s * s * t * t / 2)
            return shift * mass, mu + s * s * t + s * (mpmath.npdf(a) - mpmath.npdf(b)) / mass

        z, mean = mass_and_mean(0)
        m, tilted_mean = mass_and_mean(-1)
        want = float(mpmath.log(mean) - mpmath.log(m / z * tilted_mean))
    eps = epsilon_of_combo(law, 1.0)
    assert eps == math.inf or abs(eps - want) <= 1e-7 * want
    if width >= 1e-3:
        assert eps < math.inf


def test_auto_radius_keeps_the_fallback_law():
    # doubling would need more than 4e6 points for this law, so the
    # bounded radius is kept
    combo = committed_compound_laws()["compound_trunc_gaussian"]
    assert _power_of_two_radius(combo, 1e-3, 1.0)[1]


def _is_point_mass(combo):
    return all(isinstance(d, Degenerate) for _, d in combo.active_terms())


@pytest.mark.parametrize("combo, dq", AUDITED_LAWS + _criterion5_laws())
def test_shrunk_radius_keeps_the_grid_epsilon(combo, dq):
    # the log-ratio peaks on [0, dq], so dropping the far points the old
    # power-of-two radius held changes no bit of the grid epsilon, read
    # from the same log-space density on both grids
    def log_density(xs):
        return combo.log_mgf_deriv(-np.abs(xs))

    got = verify_epsilon_empirically(combo, dq)
    old = density_grid_epsilon(log_density, dq, _power_of_two_radius(combo, 1e-3, dq)[0], 1e-3)
    if _is_point_mass(combo):
        # a point mass's log-ratio is the same constant at every x <= 0, so
        # its grid maximum is rounding noise over whichever points the grid
        # holds.  |ln p| stays below 64 on either grid (the doubled radius
        # is at most twice the covering one, where ln p is about ln 1e-9,
        # and epsilon <= 8), so each side is within 2 ulps of 64 of the
        # exact epsilon
        exact = epsilon_of_combo(combo, dq)
        assert abs(got - exact) <= 2 * np.spacing(64.0)
        assert abs(old - exact) <= 2 * np.spacing(64.0)
    else:
        assert got == old


def _bits(value):
    # every float of a result, as its exact hex form, so that equal bits
    # (not just equal values) are required
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


_KL_GOAL = UtilityGoal("kl", prior=Histogram((0, 1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1), 50.0))
ENTRY_POINTS = {
    "epsilon_of_combo": lambda law: epsilon_of_combo(law, 0.7),
    "necessary_condition_report": lambda law: passes_necessary_condition(law, 0.7),
    "rdp_of": lambda law: (rdp_of(law, 1.0), rdp_of(law, 2.0, sensitivity=0.5)),
    "verify_epsilon_empirically": lambda law: verify_epsilon_empirically(law, 0.7),
    "usefulness_bound": lambda law: usefulness_bound(law, 0.4),
    "l1_bound": lambda law: l1_bound(law),
    "l2_bound": lambda law: l2_bound(law),
    "expected_metric_empirical": lambda law: tuple(
        expected_metric_empirical(law, goal, trials=300, rng=np.random.default_rng(8))
        for goal in (UtilityGoal("usefulness", gamma=0.4), _KL_GOAL)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("law", [
    Degenerate(2.0),
    Bernoulli(0.3, 1.0, 4.0),
    Gamma(3.5, 0.6),
    Uniform(0.5, 3.0),
    TruncGaussian(0.0, 0.1, 1.0),  # deep tail
], ids=lambda law: law.family)
def test_entry_points_take_a_bare_law_as_its_singleton(entry, law):
    fn = ENTRY_POINTS[entry]
    assert _bits(fn(law)) == _bits(fn(singleton(law)))
