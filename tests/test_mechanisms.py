import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate, stats

from dpcalib.distributions import (
    FAMILIES,
    Bernoulli,
    Degenerate,
    Gamma,
    LinearCombo,
    TruncGaussian,
    Uniform,
    singleton,
)
from dpcalib.mechanisms import (
    CompoundLaplace,
    Gaussian,
    InputDomainError,
    Laplace,
    RandomizedResponse,
    Staircase,
    gaussian_sigma,
    laplace_usefulness,
    perturb,
    sample_noise,
    staircase_default_width,
    staircase_log_density,
    staircase_norm,
    staircase_sample,
    staircase_usefulness,
)
from dpcalib.privacy import density_grid_epsilon
from dpcalib.utility import usefulness_bound


def test_mechanism_validation():
    with pytest.raises(ValueError):
        Laplace(0.0)
    with pytest.raises(ValueError):
        Gaussian(-1.0)
    with pytest.raises(ValueError):
        RandomizedResponse(1.0)
    with pytest.raises(ValueError):
        Staircase(0.0, 1.0)
    with pytest.raises(ValueError):
        Staircase(1.0, 1.0, gamma_s=1.5)


def test_staircase_default_width():
    assert staircase_default_width(1.0) == pytest.approx(1.0 / (1.0 + math.exp(0.5)))


def test_staircase_band_masses_are_geometric():
    eps = 1.2
    rng = np.random.default_rng(0)
    x = staircase_sample(eps, 1.0, None, rng, 400_000)
    for k in (1, 2, 3):
        tail = np.mean(np.abs(x) >= k)
        assert tail == pytest.approx(math.exp(-k * eps), abs=4e-3)


def test_staircase_subband_density_ratio():
    # density in the upper part of each band is e^-eps times the lower part
    eps = 1.0
    g = staircase_default_width(eps)
    rng = np.random.default_rng(1)
    x = np.abs(staircase_sample(eps, 1.0, None, rng, 1_000_000))
    frac = x - np.floor(x)
    for k in (0, 1):
        band = x[(x >= k) & (x < k + 1)]
        bf = band - k
        lower = np.mean(bf < g) / g
        upper = np.mean(bf >= g) / (1.0 - g)
        assert upper / lower == pytest.approx(math.exp(-eps), rel=0.05)


def test_staircase_width_one_collapses_to_uniform_bands():
    eps = 1.5
    rng = np.random.default_rng(2)
    x = np.abs(staircase_sample(eps, 1.0, 1.0, rng, 400_000))
    band0 = x[x < 1.0]
    # density constant within the band: halves carry equal mass
    assert np.mean(band0 < 0.5) == pytest.approx(0.5, abs=5e-3)


def test_staircase_analytic_usefulness_matches_samples():
    rng = np.random.default_rng(3)
    for eps, dq, gamma in [(1.0, 1.0, 0.35), (2.0, 0.5, 0.8), (6.0, 1.0, 0.1)]:
        x = staircase_sample(eps, dq, None, rng, 300_000)
        emp = np.mean(np.abs(x) <= gamma)
        ana = staircase_usefulness(eps, dq, gamma)
        assert emp == pytest.approx(ana, abs=5e-3)


def test_staircase_analytic_moments_match_samples():
    rng = np.random.default_rng(4)
    for eps in (0.5, 2.0, 6.0):
        x = staircase_sample(eps, 1.0, None, rng, 400_000)
        assert np.mean(np.abs(x)) == pytest.approx(staircase_norm(eps, 1.0, 1), rel=0.02)
        assert math.sqrt(np.mean(x**2)) == pytest.approx(staircase_norm(eps, 1.0, 2), rel=0.02)
    # sensitivity scales both linearly
    assert staircase_norm(2.0, 3.0, 1) == pytest.approx(3 * staircase_norm(2.0, 1.0, 1))
    assert staircase_norm(2.0, 3.0, 2) == pytest.approx(3 * staircase_norm(2.0, 1.0, 2))


@pytest.mark.parametrize("gamma_s", [None, 0.3, 1.0])
@pytest.mark.parametrize("eps", [0.25, 2.0, 8.0])
@pytest.mark.parametrize("p", [1, 2])
def test_staircase_norm_matches_quadrature_of_the_density(p, eps, gamma_s):
    # 2 * sum over bands of int x^p e^(log density) on each sub-band, on
    # which the density is flat, until a band adds less than 1e-18
    mech = Staircase(eps, 1.0, gamma_s)
    g = mech.width
    pieces = []
    for k in range(100_000):
        band = sum(integrate.quad(lambda x: x ** p * math.exp(staircase_log_density(mech, x)),
                                  lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                   for lo, hi in ((k, k + g), (k + g, k + 1)) if hi > lo)
        pieces.append(band)
        if band < 1e-18 * sum(pieces):
            break
    expected = (2.0 * math.fsum(pieces)) ** (1.0 / p)
    assert staircase_norm(eps, 1.0, p, gamma_s) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("eps", [0.001, 0.01, 0.25, 1.0, 8.0])
def test_staircase_l1_keeps_its_digits_at_small_epsilon(eps):
    # at the default width E|noise| = e^(eps/2) / (e^eps - 1); 1 - e^-eps
    # written as a difference lost up to 3e-14 of it at eps = 0.001
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        exact = mpmath.exp(e / 2) / mpmath.expm1(e)
        got = staircase_norm(eps, 1.0, 1)
        assert abs(got - exact) <= 1.2e-16 * exact


def test_staircase_density_grid_epsilon_respects_guarantee():
    for eps in (0.8, 1.5, 3.0):
        mech = Staircase(eps, 1.0)
        grid_eps = density_grid_epsilon(
            lambda xs: staircase_log_density(mech, xs), 1.0, 40.0, 1e-3
        )
        assert grid_eps <= eps + 1e-9
        assert grid_eps >= eps - 0.05  # the bound is tight at band boundaries


def test_laplace_usefulness_empirical():
    rng = np.random.default_rng(5)
    b = 0.7
    noise = sample_noise(Laplace(b), rng, 400_000)
    for gamma in (0.2, 0.9):
        emp = np.mean(np.abs(noise) <= gamma)
        ana = laplace_usefulness(1.0 / b, 1.0, gamma)  # epsilon = dq / b
        assert ana == pytest.approx(1.0 - math.exp(-gamma / b))
        se = math.sqrt(ana * (1 - ana) / noise.size)
        assert abs(emp - ana) < 4 * se


def test_compound_degenerate_reduces_to_laplace_ks():
    rng = np.random.default_rng(6)
    b = 0.5
    compound = sample_noise(CompoundLaplace(singleton(Degenerate(1.0 / b))), rng, 100_000)
    direct = rng.laplace(0.0, b, 100_000)
    result = stats.ks_2samp(compound, direct)
    assert result.pvalue > 0.01


def test_compound_gamma_usefulness_matches_bound():
    combo = singleton(Gamma(2.0, 1.0))
    assert usefulness_bound(combo, 1.0) == pytest.approx(0.75)
    rng = np.random.default_rng(7)
    noise = sample_noise(CompoundLaplace(combo), rng, 400_000)
    emp = np.mean(np.abs(noise) <= 1.0)
    se = math.sqrt(0.75 * 0.25 / noise.size)
    assert abs(emp - 0.75) < 4 * se


def test_perturb_adds_noise_to_true_value():
    rng = np.random.default_rng(8)
    val = perturb(Laplace(1.0), 100.0, rng)
    rng2 = np.random.default_rng(8)
    assert val == pytest.approx(100.0 + rng2.laplace(0.0, 1.0))


def test_randomized_response_bit_semantics():
    rng = np.random.default_rng(9)
    outs = [perturb(RandomizedResponse(0.8), 1, rng) for _ in range(20_000)]
    assert set(outs) <= {0.0, 1.0}
    assert np.mean(outs) == pytest.approx(0.8, abs=0.01)
    with pytest.raises(InputDomainError):
        perturb(RandomizedResponse(0.8), 0.5, rng)


def test_samplers_reproducible():
    for mech in (Laplace(1.0), Staircase(2.0, 1.0), Gaussian(1.0),
                 CompoundLaplace(singleton(Gamma(2.0, 1.0)))):
        a = sample_noise(mech, np.random.default_rng(123), 50)
        b = sample_noise(mech, np.random.default_rng(123), 50)
        assert np.array_equal(a, b)


def test_gaussian_sigma_values():
    assert gaussian_sigma(math.log(2.0), 0.05, 1.0) == pytest.approx(2.65, abs=0.01)
    # at delta = 1/2 the quantile term vanishes
    assert gaussian_sigma(1.0, 0.5, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert gaussian_sigma(0.7, 0.05, 2.0) == pytest.approx(
        2.0 * gaussian_sigma(0.7, 0.05, 1.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        gaussian_sigma(1.0, 0.0, 1.0)


def test_sample_noise_rejects_randomized_response():
    with pytest.raises(InputDomainError):
        sample_noise(RandomizedResponse(0.6), np.random.default_rng(0))


# one law per family; the TruncGaussian sits in the deep upper tail
_ONE_PER_FAMILY = (
    Degenerate(2.0),
    Bernoulli(0.3, 0.5, 2.0),
    Gamma(0.5, 1.5),
    Uniform(0.2, 4.0),
    TruncGaussian(0.0, 0.1, 1.0),
)


@pytest.mark.parametrize(
    "mech",
    [Laplace(0.7), Gaussian(1.3), Staircase(1.0, 1.0), Staircase(0.7, 2.0, gamma_s=0.3)]
    + [pytest.param(CompoundLaplace(singleton(d, 0.8)), id=f"CompoundLaplace{i}")
       for i, d in enumerate(_ONE_PER_FAMILY)]
    # fixed id: ids 5 and 6 belonged to families since retired, and a case
    # keeps its name when the list before it shrinks
    + [pytest.param(CompoundLaplace(LinearCombo(
        ((0.5, Gamma(2.0, 1.0)), (0.5, TruncGaussian(1.0, 0.8, 0.05, 25.0))))),
        id="CompoundLaplace7")],
    ids=lambda m: type(m).__name__,
)
def test_scalar_and_batch_draws_are_bit_identical(mech):
    assert {type(d) for d in _ONE_PER_FAMILY} == set(FAMILIES.values())
    rng, rng2 = np.random.default_rng(42), np.random.default_rng(42)
    scalar = [sample_noise(mech, rng) for _ in range(2000)]
    batch = [sample_noise(mech, rng2, 1)[0] for _ in range(2000)]
    assert all(type(x) is float for x in scalar)
    assert np.array_equal(scalar, batch)


@dataclass(frozen=True)
class _StuckDraws(Degenerate):
    """A law whose sampler returns ``draw`` whatever its analysed value."""

    draw: float = math.inf

    def sample(self, rng, size=None):
        return self.draw if size is None else np.full(size, self.draw)


@pytest.mark.parametrize("draw", [math.inf, math.nan, 0.0])
def test_unusable_reciprocal_scale_raises(draw):
    mech = CompoundLaplace(singleton(_StuckDraws(1.0, draw)))
    with pytest.raises(InputDomainError):
        sample_noise(mech, np.random.default_rng(0))
    with pytest.raises(InputDomainError):
        sample_noise(mech, np.random.default_rng(0), 10)
    with pytest.raises(InputDomainError):
        perturb(mech, 3.0, np.random.default_rng(0))
