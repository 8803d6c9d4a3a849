import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from strategies import any_dist, committed_compound_laws, product_rule_deriv
from dpcalib.distributions import (
    Bernoulli,
    Degenerate,
    DomainError,
    Gamma,
    LinearCombo,
    TruncGaussian,
    Uniform,
    _expm1_over,
    _expm1_over_deriv,
    _hazard_excess,
    _patch,
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


def test_trunc_gaussian_log_mgf_matches_mpmath_in_both_tails_and_between():
    # TruncGaussian(mu, 1, lo, hi) tilted by t holds the standard window
    # [alpha - t, beta - t], here [a, b], and
    # ln M(t) = mu t + t^2/2 + ln P(alpha - t, beta - t) - ln P(alpha, beta),
    # P the standard normal mass of a window
    mpmath = pytest.importorskip("mpmath")
    windows = [(-40.0, -39.0), (-3.0, -1.0), (-2.0, 1.0), (-1.0, 2.0), (0.5, 0.75),
               (39.0, 40.0), (9.0, math.inf), (-3.0, math.inf), (-40.0, math.inf)]
    mu, lo = 0.3, 1.0

    def log_mass(x, y):
        mass = mpmath.ncdf(-x) - mpmath.ncdf(-y) if x > 0 else mpmath.ncdf(y) - mpmath.ncdf(x)
        return mpmath.log(mass)

    with mpmath.workdps(40):
        for a, b in windows:
            law = TruncGaussian(mu, 1.0, lo, lo + (b - a))
            t = (lo - mu) - a
            m, s = mpmath.mpf(mu), mpmath.mpf(t)
            alpha = mpmath.mpf(law.lo) - m
            beta = mpmath.mpf(law.hi) - m if math.isfinite(law.hi) else mpmath.inf
            want = m * s + s * s / 2 + log_mass(alpha - s, beta - s) - log_mass(alpha, beta)
            got = law.log_mgf_and_mean(t)[0]
            assert got == pytest.approx(float(want), rel=1e-14, abs=1e-15), (a, b)


def test_uniform_mgf_deriv_matches_mpmath_near_zero():
    # Uniform(0, 1) has M'(s) = d/ds [expm1(s)/s], whose direct form
    # (s e^s - expm1(s))/s^2 cancels about 1/s-fold near 0: 600 points on
    # both sides of the switch to its series at |s| = 2e-2
    mpmath = pytest.importorskip("mpmath")
    mag = np.geomspace(1e-6, 1.0, 300)
    s = np.concatenate([-mag[::-1], mag])
    got = Uniform(0.0, 1.0).mgf_deriv(s)
    with mpmath.workdps(40):
        for x, value in zip(s, got):
            x = mpmath.mpf(float(x))
            want = (x * mpmath.exp(x) - mpmath.expm1(x)) / (x * x)
            assert value == pytest.approx(float(want), rel=5e-14, abs=0.0)


def test_trunc_gaussian_deep_tail_is_stable():
    d = TruncGaussian(0.0, 1.0, 0.0)
    assert 0.0 < d.mgf(-200.0) < 1e-2
    assert np.isfinite(d.mgf_deriv(-200.0))


def _tilt_keeping_far_terms(law, t):
    # (ln M, tilted mean) of a windowed TruncGaussian with every far-end
    # term kept: q = phi(h)/phi(l) held at e^-700 and erfcx(h/√2) at every
    # point, each regime evaluated everywhere and selected by np.where
    rsqrt2, c, k = 1.0 / math.sqrt(2.0), math.sqrt(2.0 / math.pi), 2.0 ** -26
    st_ = law.sigma * t
    a, b = law._alpha - st_, law._beta - st_
    l, h = np.maximum(a, -b), np.maximum(b, -a)
    q = np.exp(np.maximum(-law._half * (l + h), -700.0))
    e_h = special.erfcx(h * rsqrt2)
    base = np.maximum(t * law.lo + law._c_lo, t * law.hi + law._c_hi)
    with np.errstate(all="ignore"):
        straddle = l < 0.0
        e_l = special.erfcx(l * rsqrt2)
        g = e_l - e_h * q
        log_k = np.where(straddle, np.log(0.5 * (special.erf(h * rsqrt2) + special.erf(-l * rsqrt2))),
                         np.log(0.5 * g))
        core = log_k + 0.5 * np.minimum(l, 0.0) ** 2
        core = np.where(g < k * e_l, np.nan, core)
        r = np.where(straddle, np.exp(np.maximum(-core, -700.0)) * (1.0 / math.sqrt(2.0 * math.pi)),
                     c / g)
        deep = (_hazard_excess(l) * e_l - q * (c - l * e_h)) / g
        ev = np.where(l > 12.0, deep, r * (1.0 - q) - l)
        mean = np.where(a >= -b, law.lo + law.sigma * ev, law.hi - law.sigma * ev)
        bad = (r * q * (law.sigma * k) > mean) | (ev < 0.0) | (ev > 2.0 * law._half)
        return base + core, np.where(bad, np.nan, mean)


def _windowed_trunc_gaussians():
    rng = np.random.default_rng(5)
    laws = [TruncGaussian(1.0, 0.8, 0.05, 25.05),  # the ensemble's term
            TruncGaussian(0.079, 9.23, 0.0017, 5.06),  # compound_trunc_gaussian's
            TruncGaussian(10.0, 1.0, 0.0, 2.0),  # mirrored near t = 0
            TruncGaussian(0.0, 1e100, 1.0, 2.0),  # l passes _HELD_REACH
            TruncGaussian(1.0 - 2e5, 1e5, 1.0, 2.0),  # 1e-5 sigma wide
            TruncGaussian(-143668.88, 32918.30, 1.352e-07, 1.508e-07)]
    for _ in range(40):
        lo = abs(rng.normal()) * 10 ** rng.uniform(-3, 3)
        laws.append(TruncGaussian(rng.normal() * 10 ** rng.uniform(-2, 3),
                                  10 ** rng.uniform(-4, 60), lo, lo + 10 ** rng.uniform(-8, 3)))
    return laws


@pytest.mark.parametrize("law", _windowed_trunc_gaussians())
def test_dropped_far_terms_keep_the_kernels_bits(law):
    # where q is held at the floor and l < _HELD_REACH, the kernel drops
    # the far end's terms; every value must keep the bits it has with them,
    # on a monotone t (the audit's, one run per regime) and a shuffled one
    t = np.concatenate([-np.geomspace(1e-6, 1e200, 3000), np.geomspace(1e-6, 1e3, 300), [0.0]])
    for t in (t, np.random.default_rng(1).permutation(t)):
        want_log_m, want_mean = _tilt_keeping_far_terms(law, t)
        log_m, mean = law.log_mgf_and_mean(t)
        np.testing.assert_array_equal(log_m, want_log_m)
        np.testing.assert_array_equal(mean, want_mean)
    for i in range(0, t.size, 97):  # a scalar t, through the 0-d path
        np.testing.assert_array_equal(law.log_mgf_and_mean(float(t[i])), (want_log_m[i], want_mean[i]))


_MASKS = {
    "none": np.zeros(9, bool),
    "all": np.ones(9, bool),
    "prefix": np.arange(9) < 4,
    "suffix": np.arange(9) >= 6,
    "middle run": (np.arange(9) >= 2) & (np.arange(9) < 7),
    "two runs": np.isin(np.arange(9), [1, 2, 5, 6, 7]),
    "one point": np.arange(9) == 4,
}


@pytest.mark.parametrize("mask", _MASKS.values(), ids=_MASKS)
def test_patch_matches_the_boolean_gather_and_scatter(mask):
    x, y = np.linspace(-2.0, 2.0, 9), np.geomspace(1.0, 9.0, 9)
    seen = []

    def fn(x, y, c):  # records what it is handed, and returns a fresh array
        seen.append((np.array(x), np.array(y)))
        return np.exp(x) * y + c

    want = np.full(9, -1.0)
    want[mask] = np.exp(x[mask]) * y[mask] + 0.5
    got = _patch(mask, fn, (x, y, 0.5), np.full(9, -1.0))
    assert got.tobytes() == want.tobytes()
    # fn ran once on the masked points only, or not at all
    assert [(a.tolist(), b.tolist()) for a, b in seen] == (
        [(x[mask].tolist(), y[mask].tolist())] if mask.any() else [])


@pytest.mark.parametrize("holds", [True, False])
def test_patch_of_one_point_replaces_or_keeps_it(holds):
    got = _patch(np.asarray(holds), lambda x: x + 1.0, (np.float64(2.0),), np.float64(7.0))
    assert got == (3.0 if holds else 7.0)


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
    # below shape 0.05 rng.gamma returns exact zeros the release would redraw
    with pytest.raises(ValueError, match="underflow"):
        Gamma(0.049, 1.0)
    with pytest.raises(ValueError, match="underflow"):
        Gamma(1e-3, 1.0)
    assert Gamma(0.05, 1.0).shape == 0.05
    with pytest.raises(ValueError):
        Uniform(3.0, 2.0)
    with pytest.raises(ValueError):
        Uniform(-0.5, 2.0)
    with pytest.raises(ValueError):
        TruncGaussian(0.0, -1.0, 0.0)
    assert TruncGaussian(0.5, 1.0, 0.0, math.inf).mean() > 0.0  # hi may be inf
    with pytest.raises(ValueError):
        LinearCombo(((-0.5, Degenerate(1.0)),))
    with pytest.raises(ValueError):
        LinearCombo(((0.0, Degenerate(1.0)),))
    with pytest.raises(ValueError):
        LinearCombo(())


_VALID_PARAMS = [
    (Degenerate, (2.0,)),
    (Bernoulli, (0.5, 1.0, 3.0)),
    (Gamma, (2.0, 1.0)),
    (Uniform, (0.5, 3.0)),
    (TruncGaussian, (0.5, 1.0, 0.0, 5.0)),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family, params, i, bad", [
    (family, params, i, bad)
    for family, params in _VALID_PARAMS
    for i in range(len(params))
    for bad in (math.inf, -math.inf, math.nan)
    if not (family is TruncGaussian and i == 3 and bad == math.inf)
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_families_refuse_non_finite_parameters(family, params, i, bad):
    # refused when built, not when verified or sampled later
    with pytest.raises(ValueError):
        family(*params[:i], bad, *params[i + 1:])


def test_degenerate_sampler_is_constant():
    rng = np.random.default_rng(0)
    d = Degenerate(5.0)
    assert d.draw(rng) == 5.0
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
        draws = np.array([dist.draw(rng) for _ in range(20_000)])
    else:
        draws = dist.sample(rng, 200_000)
    assert np.all(np.isfinite(draws))
    assert draws.min() >= dist.lo and draws.max() <= dist.hi
    for t in (1.0, 0.4):
        vals = np.exp(-t * draws)
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - dist.mgf(-t)) <= 4 * se


class _OneUniform:
    """A generator stand-in whose ``random`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u


# (law, whether its quantile takes the tail branch, the uniform at a window
# end, the side its unclipped quantile rounds past)
_CLIPPED_ENDS = [
    (TruncGaussian(0.5, 1.2, 0.0), False, 0.0, "lo"),
    (TruncGaussian(0.079, 9.23, 0.0017, 5.06), False, 1 - 2**-53, "hi"),
    (TruncGaussian(1.0, 0.8, 0.05, 25.05), False, 1 - 2**-53, "hi"),  # quantile inf
    (TruncGaussian(0.0, 1.0, 0.3, 0.7), True, 0.0, "lo"),
    (TruncGaussian(-143668.88, 32918.30, 1.352e-07, 1.508e-07), True, 0.0, "lo"),
    (TruncGaussian(1.0 - 2e5, 1e5, 1.0, 2.0), True, 1 - 2**-53, "hi"),
]


@pytest.mark.parametrize("law, tail, u, side", _CLIPPED_ENDS, ids=repr)
def test_trunc_gaussian_draw_clips_a_window_end_as_the_batch_does(law, tail, u, side):
    assert (law._tail is not None) == tail
    x = float(law._inverse_cdf(u))
    assert x < law.lo if side == "lo" else x > law.hi  # the clip has work to do
    for v in (0.0, u, 0.5, 1 - 2**-53):
        want = float(np.clip(law._inverse_cdf(v), law.lo, law.hi))
        got = law.draw(_OneUniform(v))
        assert type(got) is float and got.hex() == want.hex(), v
        assert law.lo <= got <= law.hi
        assert got.hex() == float(law.sample(_OneUniform(np.array([v])), 1)[0]).hex()


@pytest.mark.parametrize(
    "dist",
    [Gamma(2.0, 0.7), Uniform(0.5, 3.0), TruncGaussian(0.5, 1.2, 0.0), Bernoulli(0.3, 0.5, 2.0)],
)
@pytest.mark.parametrize("t", [-2.0, -1.0, -0.1])
def test_sampler_agrees_with_mgf(dist, t):
    # a key that is the same in every process, so a failure can be replayed
    rng = np.random.default_rng(zlib.crc32(repr((dist, t)).encode()))
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
    draws = np.concatenate([dist.sample(rng, 20_000), [dist.draw(rng) for _ in range(20)]])
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)
    n = draws.size
    for t in (0.5 / dist.mean(), 2.0 / dist.mean()):
        m = dist.mgf(-t)
        se = math.sqrt(max(dist.mgf(-2.0 * t) - m * m, 0.0) / n)
        assert abs(np.mean(np.exp(-t * draws)) - m) <= 4.0 * se + 2.0 / n


# (name, three scalar draws, then a batch of three) from default_rng(2024)
_PINNED_DRAWS = {
    "compound_gamma": ([7.293570670265269, 7.524812244312413, 3.5297140280071004],
                       [6.973154361962942, 8.918412499183397, 6.563889994801939]),
    "compound_uniform": ([11.652698550173382, 3.7445990535949147, 5.374664029528865],
                         [13.771222354921148, 17.13550678607021, 2.509288540919866]),
    "compound_trunc_gaussian": ([11.734026604429674, 3.6577423505189013, 5.289514743281716],
                                [14.000810007021563, 17.74848615506484, 2.426994307398517]),
    "compound_bernoulli": ([1.2791508378930057, 0.3197877094732514, 0.3197877094732514],
                           [1.2791508378930057, 1.2791508378930057, 0.3197877094732514]),
    "compound_ensemble": ([0.7524115129406491, 0.20631635630046025, 1.133235729121359],
                          [0.9526797188935956, 0.6060759172666919, 0.5352446371006511]),
    "deep_tail": ([1.011095104561154, 1.0023858745159588, 1.0036601594362526],
                  [1.0157893506779245, 1.0528306898186872, 1.001518180089702]),
}


def test_committed_laws_draw_pinned_values():
    # the release path's draws for a fixed seed stay exactly what they were
    laws = committed_compound_laws()
    assert sorted(laws) == sorted(_PINNED_DRAWS)
    for name, (scalar, batch) in _PINNED_DRAWS.items():
        rng = np.random.default_rng(2024)
        assert [laws[name].draw(rng) for _ in range(3)] == scalar, name
        assert laws[name].sample(rng, 3).tolist() == batch, name


_PAIR_LAWS = [
    Degenerate(1.7),
    Bernoulli(0.3, 0.5, 22.6),
    Gamma(11.98, 0.4695),
    Uniform(0.0, 2.0),
    Uniform(0.2527, 60.31),
    TruncGaussian(1.0, 0.8, 0.05, 25.05),      # mid and upper-tail masses
    TruncGaussian(0.079, 9.229, 0.0017, 5.057),
    TruncGaussian(0.0, 0.1, 1.0),              # deep upper tail, hi = inf
    TruncGaussian(1e-4, 1e-4, 1e4),            # asymptotic branches
    TruncGaussian(100.0, 1.0, 0.0, 50.0),      # lower-tail masses
]
_PAIR_ARGS = np.concatenate([[0.0], -np.geomspace(1e-9, 1e9, 181), -np.linspace(0.0, 300.0, 61),
                             [0.01, 0.04]])


def _bits(x):
    return np.asarray(x, float).view(np.int64)


def _quadrature_log_mass_and_mean(dist, t, mpmath):
    """ln of the mass of a TruncGaussian's density tilted by e^{tx}, and its
    mean, by quadrature at the working precision.  The tilted density is
    e^{tx - (x - mu)^2 / (2 sigma^2)} on [lo, hi]; in u = (x - mu -
    sigma^2 t)/sigma it is a standard normal on [a, b].  A window off to
    one side is integrated from its end nearest the tilted mean, in steps
    of 1/distance, so that every integrand is O(1) and x is never formed
    by cancellation."""
    mp = mpmath
    mu, s, lo, t = mp.mpf(dist.mu), mp.mpf(dist.sigma), mp.mpf(dist.lo), mp.mpf(t)
    hi = mp.inf if math.isinf(dist.hi) else mp.mpf(dist.hi)
    m_t = mu + s * s * t
    a, b = (lo - m_t) / s, (hi - m_t) / s
    if a >= 0 or b <= 0:
        sign, near, end = (1, a, lo) if a >= 0 else (-1, -b, hi)
        scale = max(near, 1)
        reach = (b - a) * scale

        def density(w):
            return mp.exp(-(near / scale) * w - (w / scale) ** 2 / 2)

        cuts = [0, reach] if reach <= 40 else [0, 40, reach]
        mass = mp.quad(density, cuts)
        moment = mp.quad(lambda w: (end + sign * s * w / scale) * density(w), cuts)
        log_front = mu * t + s * s * t * t / 2 - near * near / 2 - mp.log(scale)
    else:
        cuts = [a, 0, b]
        mass = mp.quad(lambda u: mp.exp(-u * u / 2), cuts)
        moment = mp.quad(lambda u: (m_t + s * u) * mp.exp(-u * u / 2), cuts)
        log_front = mu * t + s * s * t * t / 2
    return log_front + mp.log(mass), moment / mass


@pytest.mark.parametrize("dist", [d for d in _PAIR_LAWS if isinstance(d, TruncGaussian)],
                         ids=lambda d: f"{d.mu:g},{d.sigma:g},{d.lo:g},{d.hi:g}")
def test_trunc_gaussian_mgf_pair_matches_quadrature(dist):
    # 40-digit quadrature at t = 0 and 11 points out to -300, wherever M'
    # is a normal float: within 3e-14, plus the ulp of ln M that exp
    # turns into a relative error of M
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    with mpmath.workdps(40):
        log_norm, _ = _quadrature_log_mass_and_mean(dist, 0.0, mpmath)
        for t in [0.0, *(-np.geomspace(1e-3, 300.0, 11))]:
            m, d = dist.mgf(float(t)), dist.mgf_deriv(float(t))
            if d < np.finfo(float).tiny:
                continue
            log_mass, mean = _quadrature_log_mass_and_mean(dist, float(t), mpmath)
            log_m = log_mass - log_norm
            ref_m = mpmath.exp(log_m)
            ref_d = ref_m * mean
            bound = 3e-14 + 2.2e-16 * abs(float(log_m))
            assert abs(m - ref_m) <= bound * ref_m, t
            assert abs(d - ref_d) <= bound * ref_d, t
            checked += 1
    assert checked >= 5


_PRODUCT_RULE_COMBOS = [
    singleton(TruncGaussian(0.0, 0.1, 1.0)),
    LinearCombo(((0.0, Gamma(2.0, 1.0)), (3.5, Uniform(0.25, 60.0)))),
    LinearCombo(((0.5, Gamma(2.0, 1.0)), (1.5, Bernoulli(0.3, 0.5, 2.0)))),
    committed_compound_laws()["compound_ensemble"],
    LinearCombo(((0.2, TruncGaussian(0.5, 1.0, 0.0)), (0.6, Degenerate(0.3)),
                 (0.4, Uniform(0.0, 2.0)))),
]


@pytest.mark.parametrize("combo", _PRODUCT_RULE_COMBOS)
def test_combo_deriv_matches_product_rule(combo):
    ts = -np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 301)])
    got = combo.mgf_deriv(ts)
    want = product_rule_deriv(combo, ts)
    normal = want >= np.finfo(float).tiny
    assert normal.sum() > 200
    assert np.max(np.abs(got - want)[normal] / want[normal]) <= 1e-14
    assert combo.mgf_deriv(-0.7) == pytest.approx(float(product_rule_deriv(combo, -0.7)),
                                                  rel=1e-14, abs=0.0)


def _hex(x):
    return [v.hex() for v in np.ravel(np.asarray(x, float)).tolist()]


# --- the (M, M') pair that mgf and mgf_deriv replace -------------------------
#
# Uniform's and TruncGaussian's mgf_and_deriv, and LinearCombo.mgf_deriv's
# product rule over one such pair per term, as they stood before each
# family formed M and M' in its own two methods.  mgf, mgf_deriv and the
# product rule must equal them bit for bit.


def _pair(dist, t):
    """(M(t), M'(t)) of one law, as the pair formed them; floats for a scalar t."""
    x = np.asarray(t, float)
    if isinstance(dist, Uniform):
        w = dist.hi - dist.lo
        s = x * w
        em1 = np.expm1(s)
        shift = np.exp(x * dist.lo)
        ratio = _expm1_over(s, em1)
        out = shift * ratio, shift * (dist.lo * ratio + w * _expm1_over_deriv(s, em1))
    elif isinstance(dist, TruncGaussian):
        log_m, mean = dist._tilt(x, with_mean=True)
        m = np.exp(log_m)
        out = m, m * mean
    else:  # the default pair
        return dist.mgf(t), dist.mgf_deriv(t)
    return tuple(map(float, out)) if np.isscalar(t) else out


def _pair_product_rule(combo, t):
    """M'(t) of a combination by the product rule over one pair per term."""
    x = np.asarray(t, float)
    if len(combo.terms) == 1:
        (a, d), = combo.terms
        out = a * d.mgf_deriv(a * x)
    else:
        pairs = [_pair(d, a * x) for a, d in combo.terms]
        out = np.zeros_like(x)
        for j, (a, _) in enumerate(combo.terms):
            part = a * pairs[j][1]
            for i, (v, _) in enumerate(pairs):
                if i != j:
                    part *= v
            out += part
    return float(out) if np.isscalar(t) else out


_PAIRED_LAWS = [d for d in _PAIR_LAWS if isinstance(d, (Uniform, TruncGaussian))] + [
    d for law in committed_compound_laws().values() for _, d in law.terms
    if isinstance(d, (Uniform, TruncGaussian))]


@pytest.mark.parametrize("dist", _PAIRED_LAWS, ids=lambda d: d.family)
def test_mgf_and_mgf_deriv_are_bitwise_the_pairs_values(dist):
    with np.errstate(all="ignore"):
        m, d = _pair(dist, _PAIR_ARGS)
        assert _hex(dist.mgf(_PAIR_ARGS)) == _hex(m)
        assert _hex(dist.mgf_deriv(_PAIR_ARGS)) == _hex(d)
        for t in _PAIR_ARGS.tolist():
            m, d = _pair(dist, t)
            assert dist.mgf(t).hex() == m.hex(), t
            assert dist.mgf_deriv(t).hex() == d.hex(), t


@pytest.mark.parametrize("combo", [c for c in _PRODUCT_RULE_COMBOS if len(c.terms) > 1],
                         ids=lambda c: "-".join(d.family for _, d in c.terms))
def test_combo_deriv_is_bitwise_the_pair_product_rule(combo):
    ts = -np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 301)])
    with np.errstate(all="ignore"):
        assert _hex(combo.mgf_deriv(ts)) == _hex(_pair_product_rule(combo, ts))
        for t in ts.tolist():
            assert combo.mgf_deriv(t).hex() == _pair_product_rule(combo, t).hex(), t


def _mp_log_mgf(law, t, mp):
    """ln M(t) at the working precision, ``t`` an mpf; every parameter is
    read as the exact value of its float."""
    if isinstance(law, LinearCombo):
        return sum(_mp_log_mgf(d, mp.mpf(a) * t, mp) for a, d in law.terms)
    params = {k: mp.mpf(v) for k, v in law.params().items()}
    if isinstance(law, Degenerate):
        return t * params["value"]
    if isinstance(law, Bernoulli):
        p, x0, x1 = params["p"], params["x0"], params["x1"]
        return mp.log(p * mp.exp(t * x0) + (1 - p) * mp.exp(t * x1))
    if isinstance(law, Gamma):
        return -params["shape"] * mp.log(1 - params["scale"] * t)
    if isinstance(law, Uniform):
        lo, hi = params["lo"], params["hi"]
        return mp.log((mp.exp(t * hi) - mp.exp(t * lo)) / (t * (hi - lo)))
    # ln M(t) = mu t + sigma^2 t^2 / 2 + ln P(alpha - sigma t, beta - sigma t)
    # - ln P(alpha, beta), P the standard normal mass of a window
    mu, sigma = params["mu"], params["sigma"]
    alpha, beta = (params["lo"] - mu) / sigma, (params["hi"] - mu) / sigma

    def log_mass(x, y):
        return mp.log(mp.ncdf(-x) - mp.ncdf(-y) if x > 0 else mp.ncdf(y) - mp.ncdf(x))

    st = sigma * t
    return mu * t + st * st / 2 + log_mass(alpha - st, beta - st) - log_mass(alpha, beta)


def _log_mgf_bound(law):
    """The bound on |error| / max(1, |ln M|): 4e-16, but a Gamma's
    ln M = -k ln(1 - theta t) reads the base as rounded (see ``Gamma``),
    and so carries k times its half-ulp, 2^-54 at t > 0 (5.9e-16 on
    compound_gamma's term at t = 0.01).  Two extreme windows of
    ``_PAIR_LAWS`` form a small ln M from ln-masses near -18 that keep
    their own ulps: 1.6e-15 at t = 1e-6 where lo = 1e4, and 6.6e-16 at
    t = 0.01 on the lower tail."""
    extreme = {TruncGaussian(1e-4, 1e-4, 1e4): 2e-15, TruncGaussian(100.0, 1.0, 0.0, 50.0): 1e-15}
    if law in extreme:
        return extreme[law]
    return 4e-16 + (law.shape * 2.0 ** -54 if isinstance(law, Gamma) else 0.0)


# laws of every family, the committed laws' terms among them, and a
# 3-term combination
_LOG_MGF_LAWS = [
    *_PAIR_LAWS,
    *(d for law in committed_compound_laws().values() for _, d in law.terms),
    LinearCombo(((0.5, Bernoulli(0.3, 0.5, 2.0)), (1.5, Uniform(0.25, 3.0)),
                 (0.2, TruncGaussian(0.5, 1.0, 0.0)))),
]


@pytest.mark.parametrize("law", _LOG_MGF_LAWS, ids=lambda law: _contract_id(law))
def test_log_mgf_and_mean_reads_ln_m_to_mpmath_at_positive_t(law):
    # the t > 0 side, where M overflows first, and which only the
    # scale-releasing Renyi bound reads; Gamma below its pole
    mpmath = pytest.importorskip("mpmath")
    bound = 4e-16 if isinstance(law, LinearCombo) else _log_mgf_bound(law)
    with mpmath.workdps(50):
        for t in (1e-6, 0.01, 0.5, 1.0, 3.0, 15.0, 63.0):
            if t >= law.mgf_domain_sup():
                continue
            want = _mp_log_mgf(law, mpmath.mpf(t), mpmath)
            got = law.log_mgf_and_mean(t)[0]
            assert abs(got - want) <= bound * max(1.0, abs(float(want))), (t, got, float(want))


_ZERO_TERM_COMBO = LinearCombo(((0.5, Gamma(2.0, 1.0)), (0.0, TruncGaussian(0.5, 1.0, 0.0)),
                                 (1.5, Uniform(0.25, 3.0))))
_CONTRACT_LAWS = [
    Degenerate(1.5), Bernoulli(0.3, 0.5, 2.0), Gamma(2.0, 1.0), Uniform(0.25, 3.0),
    TruncGaussian(0.5, 1.0, 0.0), TruncGaussian(1e-4, 1e-4, 1e4),
    singleton(Bernoulli(0.3, 0.5, 2.0), 2.0), _ZERO_TERM_COMBO,
]


def _contract_id(law):
    return "combo-" + "-".join(d.family for _, d in law.terms) if isinstance(
        law, LinearCombo) else law.family


@pytest.mark.parametrize("method", ["mgf", "mgf_deriv", "log_mgf_deriv", "log_mgf_and_mean"])
@pytest.mark.parametrize("law", _CONTRACT_LAWS, ids=_contract_id)
def test_mgf_methods_take_scalars_and_arrays_of_any_shape(law, method):
    # A float or numpy scalar gives a float (a tuple of floats for the
    # pair); a 0-d array gives the scalar call's bits.  1-d and 2-d arrays
    # keep their shape and their bits under reshaping; against scalar calls
    # they may differ by an ulp where numpy's vector pow differs from its
    # scalar one, as Gamma(2, 1)'s M' at t = 0.2 does: 0x1.f3ffffffffffep+1
    # in an array of six, 0x1.f3fffffffffffp+1 alone.
    call = getattr(law, method)
    pair = method == "log_mgf_and_mean"
    ts = np.array([[-3.0, -0.5, 0.0], [-1e-3, 0.02, -40.0]])
    for t in (0.02, np.float64(-0.5), -3):
        out = call(t)
        if pair:
            assert type(out) is tuple and [type(v) for v in out] == [float, float]
        else:
            assert type(out) is float
    zero_d = call(np.asarray(-0.5))
    assert np.shape(zero_d) == ((2,) if pair else ())
    assert _bits(zero_d).tolist() == _bits(call(-0.5)).tolist()
    flat = call(ts.ravel())
    for t in (ts[0], ts):
        out = call(t)
        parts, flat_parts = (out, flat) if pair else ((out,), (flat,))
        scalar = np.array([call(float(x)) for x in t.ravel()]).reshape(t.size, -1)
        for k, (part, whole) in enumerate(zip(parts, flat_parts)):
            assert isinstance(part, np.ndarray) and part.shape == t.shape
            assert _bits(part.ravel()).tolist() == _bits(whole[:t.size]).tolist()
            np.testing.assert_array_max_ulp(part.ravel(), scalar[:, k], maxulp=1)
    pole = law.mgf_domain_sup()  # Gamma's: 1 alone, 2 in the combination
    if math.isfinite(pole):
        for t in (pole, np.float64(pole + 1.0), np.asarray(pole), np.array([[0.0], [pole]])):
            with pytest.raises(DomainError):
                call(t)


def test_zero_coefficient_terms_are_dropped():
    assert _ZERO_TERM_COMBO.terms == ((0.5, Gamma(2.0, 1.0)), (1.5, Uniform(0.25, 3.0)))
    assert _ZERO_TERM_COMBO.active_terms() == _ZERO_TERM_COMBO.terms
    assert "trunc_gaussian" not in format_combo(_ZERO_TERM_COMBO)
    assert _ZERO_TERM_COMBO == LinearCombo(((0.5, Gamma(2.0, 1.0)), (1.5, Uniform(0.25, 3.0))))
    assert parse_combo(format_combo(_ZERO_TERM_COMBO)) == _ZERO_TERM_COMBO
    with pytest.raises(ValueError, match="at least one coefficient"):
        LinearCombo(((0.0, Gamma(2.0, 1.0)),))


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
    # a missing or unknown parameter names the family's parameters
    for text in ("gamma shape=2", "gamma shape=2 scale=1 foo=3", "degenerate"):
        with pytest.raises(ValueError, match=r"takes \w+"):
            parse_dist(text)
    with pytest.raises(ValueError, match="'gamma' takes shape, scale"):
        parse_combo("1 gamma shape=2")
