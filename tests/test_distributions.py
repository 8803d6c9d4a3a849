import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from strategies import any_dist
from dpcalib.distributions import (
    Bernoulli,
    Degenerate,
    DomainError,
    Gamma,
    LinearCombo,
    TruncGaussian,
    Uniform,
    format_combo,
    format_dist,
    parse_combo,
    parse_dist,
    singleton,
)


@given(any_dist())
def test_mgf_is_one_at_zero(dist):
    assert dist.mgf(0.0) == pytest.approx(1.0, abs=1e-12)


@given(any_dist(), st.floats(-8.0, 0.0))
def test_mgf_deriv_matches_finite_difference(dist, t):
    h = 1e-5
    fd = (dist.mgf(t + h) - dist.mgf(t - h)) / (2 * h)
    d = dist.mgf_deriv(t)
    assert abs(d - fd) <= 1e-6 * (1.0 + abs(d))


@given(any_dist())
def test_mean_matches_mgf_deriv_at_zero(dist):
    assert dist.mgf_deriv(0.0) == pytest.approx(dist.mean(), abs=1e-10, rel=1e-10)


@given(any_dist(), st.floats(-6.0, 0.0), st.floats(-6.0, 0.0))
def test_mgf_log_convexity(dist, t1, t2):
    mid = dist.mgf(0.5 * t1 + 0.5 * t2)
    bound = math.sqrt(dist.mgf(t1) * dist.mgf(t2))
    assert mid <= bound + 1e-12


def test_gamma_mgf_closed_form_value():
    assert Gamma(1.0, 1.0).mgf(-1.0) == pytest.approx(0.5, abs=1e-15)


def test_uniform_mgf_at_zero_and_near_zero():
    u = Uniform(1.0, 3.0)
    assert u.mgf(0.0) == 1.0
    # across the removable singularity the values follow the Taylor series
    # 1 + t E[X] + t^2 E[X^2] / 2 + ... with E[X] = 2, E[X^2] = 13/3
    for t in (1e-9, -1e-9, 2e-5, -2e-5):
        ref = 1.0 + 2.0 * t + (13.0 / 3.0) * t * t / 2.0
        assert u.mgf(t) == pytest.approx(ref, rel=1e-12)
    # and far from it they match the textbook expression
    for t in (-2.0, 0.7):
        exact = (math.exp(t * 3) - math.exp(t * 1)) / (t * 2)
        assert u.mgf(t) == pytest.approx(exact, rel=1e-13)


def test_trunc_gaussian_mgf_against_quadrature():
    d = TruncGaussian(1.0, 2.0, 2.0, 9.0)
    a, b = (2.0 - 1.0) / 2.0, (9.0 - 1.0) / 2.0
    val, _ = integrate.quad(
        lambda x: stats.truncnorm.pdf(x, a, b, loc=1.0, scale=2.0) * math.exp(-0.8 * x),
        2.0,
        9.0,
    )
    assert d.mgf(-0.8) == pytest.approx(val, abs=1e-10)


def test_trunc_gaussian_half_normal_mean():
    d = TruncGaussian(0.0, 1.0, 0.0)
    assert d.mean() == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)
    rng = np.random.default_rng(42)
    draws = d.sample(rng, 1_000_000)
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - d.mean()) < 4 * se


def test_trunc_gaussian_deep_tail_is_stable():
    d = TruncGaussian(0.0, 1.0, 0.0)
    assert 0.0 < d.mgf(-200.0) < 1e-2
    assert np.isfinite(d.mgf_deriv(-200.0))


def test_mgf_domain_errors():
    with pytest.raises(DomainError):
        Gamma(2.0, 0.5).mgf(2.0)
    with pytest.raises(DomainError):
        Gamma(2.0, 0.5).mgf_deriv(2.5)
    # just inside the domain is fine
    assert Gamma(2.0, 0.5).mgf(1.999) > 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        Degenerate(0.0)
    with pytest.raises(ValueError):
        Bernoulli(1.5, 1.0, 2.0)
    with pytest.raises(ValueError):
        Gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        Uniform(3.0, 2.0)
    with pytest.raises(ValueError):
        Uniform(-0.5, 2.0)
    with pytest.raises(ValueError):
        TruncGaussian(0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        LinearCombo(((-0.5, Degenerate(1.0)),))
    with pytest.raises(ValueError):
        LinearCombo(((0.0, Degenerate(1.0)),))
    with pytest.raises(ValueError):
        LinearCombo(())


def test_degenerate_sampler_is_constant():
    rng = np.random.default_rng(0)
    d = Degenerate(5.0)
    assert d.sample(rng) == 5.0
    assert np.all(d.sample(rng, 100) == 5.0)


def test_gamma_sampler_mean_converges():
    rng = np.random.default_rng(7)
    draws = Gamma(2.0, 1.0).sample(rng, 1_000_000)
    assert abs(draws.mean() - 2.0) < 0.01


def test_trunc_gaussian_sampler_support():
    rng = np.random.default_rng(3)
    draws = TruncGaussian(1.0, 1.0, 0.5, 2.0).sample(rng, 20_000)
    assert draws.min() >= 0.5 and draws.max() <= 2.0


@pytest.mark.parametrize(
    "dist",
    [
        TruncGaussian(0.0, 0.1, 1.0),         # alpha = 10: ndtr(alpha) is 1.0
        TruncGaussian(1e-4, 1e-4, 1e4),       # alpha ~ 1e8
        TruncGaussian(100.0, 1.0, 0.0, 50.0),  # beta = -50: ndtr(beta) is 0.0
        TruncGaussian(2.0, 0.5, 2.0, 2.5),    # alpha = 0, in the upper-tail branch
    ],
)
@pytest.mark.parametrize("scalar", [False, True])
def test_trunc_gaussian_tail_sampler(dist, scalar):
    # every draw is finite and in [lo, hi], and E[e^{-tX}] matches the MGF
    rng = np.random.default_rng(11)
    if scalar:
        draws = np.array([dist.sample(rng) for _ in range(20_000)])
    else:
        draws = dist.sample(rng, 200_000)
    assert np.all(np.isfinite(draws))
    assert draws.min() >= dist.lo and draws.max() <= dist.hi
    for t in (1.0, 0.4):
        vals = np.exp(-t * draws)
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - dist.mgf(-t)) <= 4 * se


@pytest.mark.parametrize(
    "dist",
    [Gamma(2.0, 0.7), Uniform(0.5, 3.0), TruncGaussian(0.5, 1.2, 0.0), Bernoulli(0.3, 0.5, 2.0)],
)
@pytest.mark.parametrize("t", [-2.0, -1.0, -0.1])
def test_sampler_agrees_with_mgf(dist, t):
    rng = np.random.default_rng(abs(hash((dist.family, t))) % 2**32)
    draws = np.asarray(dist.sample(rng, 200_000))
    vals = np.exp(t * draws)
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - dist.mgf(t)) < 4 * se


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# every family but TruncGaussian, whose mean and MGF lose all precision on
# narrow windows far in a tail, over wide log ranges of its parameters
_WIDE_LAWS = st.one_of(
    st.builds(Degenerate, value=_log_uniform(1e-8, 1e6)),
    st.builds(
        lambda p, x0, ratio: Bernoulli(p, x0, x0 * ratio),
        p=st.floats(0.0, 1.0),
        x0=_log_uniform(1e-8, 1e6),
        ratio=_log_uniform(1e-12, 1e12),
    ),
    st.builds(Gamma, shape=_log_uniform(0.05, 1e6), scale=_log_uniform(1e-8, 1e6)),
    st.builds(
        lambda lo, width: Uniform(lo, lo + width),
        lo=st.just(0.0) | _log_uniform(1e-8, 1e6),
        width=_log_uniform(1e-8, 1e6),
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_WIDE_LAWS)
def test_sampler_matches_mgf_on_wide_ranges(dist):
    # draws are finite and positive, and E[e^{-tX}] is within 4 standard
    # errors of the MGF; the 2/n term covers atoms too rare to be drawn
    rng = np.random.default_rng(5)
    draws = np.concatenate([dist.sample(rng, 20_000), [dist.sample(rng) for _ in range(20)]])
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)
    n = draws.size
    for t in (0.5 / dist.mean(), 2.0 / dist.mean()):
        m = dist.mgf(-t)
        se = math.sqrt(max(dist.mgf(-2.0 * t) - m * m, 0.0) / n)
        assert abs(np.mean(np.exp(-t * draws)) - m) <= 4.0 * se + 2.0 / n


def test_combo_of_point_masses_is_point_mass():
    c = LinearCombo(((1.0, Degenerate(1.0)), (1.0, Degenerate(2.0))))
    for t in (-3.0, -0.5, 0.0, 1.0):
        assert c.mgf(t) == pytest.approx(math.exp(3.0 * t), rel=1e-14)
    assert c.mean() == 3.0


def test_singleton_combo_equals_member():
    g = Gamma(1.0, 1.0)
    c = singleton(g)
    assert c.mgf(-0.5) == g.mgf(-0.5)
    assert c.mgf_deriv(-0.5) == g.mgf_deriv(-0.5)


def test_combo_mgf_matches_monte_carlo():
    c = LinearCombo(((0.5, Gamma(2.0, 1.0)), (0.5, Uniform(0.0, 2.0))))
    rng = np.random.default_rng(11)
    draws = c.sample(rng, 1_000_000)
    vals = np.exp(-draws)
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - c.mgf(-1.0)) < 3 * se


def test_combo_deriv_product_rule():
    c = LinearCombo(((0.5, Gamma(2.0, 1.0)), (1.5, Uniform(0.5, 2.0)), (0.2, TruncGaussian(0.5, 1.0, 0.0))))
    h = 1e-6
    for t in (-2.0, -0.3):
        fd = (c.mgf(t + h) - c.mgf(t - h)) / (2 * h)
        assert c.mgf_deriv(t) == pytest.approx(fd, rel=1e-5)
    assert c.mean() == pytest.approx(c.mgf_deriv(0.0), rel=1e-12)
    assert c.mean() > 0


def test_combo_domain_error_propagates():
    c = LinearCombo(((2.0, Gamma(1.0, 1.0)),))
    with pytest.raises(DomainError):
        c.mgf(0.5)  # argument 2 * 0.5 = 1 hits the gamma pole


def test_zero_coefficient_terms_are_inert():
    c = LinearCombo(((1.0, Degenerate(2.0)), (0.0, Gamma(1.0, 1.0))))
    assert c.mgf(5.0) == pytest.approx(math.exp(10.0))  # gamma pole not probed
    assert c.mean() == 2.0


def test_serialization_round_trip():
    c = LinearCombo(
        (
            (0.25, Gamma(2.0, 1.5)),
            (1.0, TruncGaussian(0.5223, 1.5454, 0.5223, math.inf)),
            (0.5, Bernoulli(0.3, 1.0, 2.0)),
        )
    )
    assert parse_combo(format_combo(c)) == c
    d = Uniform(0.0, 2.5)
    assert parse_dist(format_dist(d)) == d
    # inline form with semicolons
    inline = "1 gamma shape=2 scale=1; 0.5 uniform lo=0 hi=2"
    c2 = parse_combo(inline)
    assert c2.terms[1][1] == Uniform(0.0, 2.0)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_dist("frobnicate a=1")
    with pytest.raises(ValueError):
        parse_dist("gamma shape")
    with pytest.raises(ValueError):
        parse_combo("")
