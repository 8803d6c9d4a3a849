import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate, special, stats
from strategies import MECHANISMS_INI

from dpcalib.distributions import (
    FAMILIES,
    Bernoulli,
    Degenerate,
    Gamma,
    LinearCombo,
    TruncGaussian,
    Uniform,
    parse_combo,
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
    standard_laplace,
)
from dpcalib.mechanisms import _laplace_of_doubled
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
    # the kernel cannot resolve this narrow window, so its mean reads nan
    narrow = TruncGaussian(-143668.88420564317, 32918.30615103151, 1.352114344842097e-07,
                           1.508136386835856e-07)
    for combo in (narrow, singleton(narrow)):
        with pytest.raises(ValueError, match="positive mean"):
            CompoundLaplace(combo)


@pytest.mark.parametrize("build", [
    lambda: Laplace(math.inf),
    lambda: Laplace(1e308),  # released -inf on 1 of 3 draws
    lambda: Laplace(math.nan),
    lambda: Gaussian(math.nan),
    lambda: Gaussian(math.inf),
    lambda: Gaussian(1e308),
    lambda: Staircase(math.inf),
    lambda: Staircase(1500.0),  # its default width 1/(1 + e^750) overflows
    lambda: Staircase(math.nan),
    lambda: Staircase(1e-17),  # 1 - e^-eps rounds to 0
    lambda: Staircase(1.0, math.inf),
    lambda: Staircase(1.0, math.nan),
], ids=["laplace-inf", "laplace-1e308", "laplace-nan", "gaussian-nan", "gaussian-inf",
        "gaussian-1e308", "staircase-eps-inf", "staircase-eps-1500", "staircase-eps-nan",
        "staircase-eps-1e-17", "staircase-sensitivity-inf", "staircase-sensitivity-nan"])
def test_mechanisms_refuse_parameters_that_release_non_finite_noise(build):
    with pytest.raises(ValueError):
        build()


def test_mechanisms_at_the_largest_scale_release_finite_noise():
    rng = np.random.default_rng(5)
    for mech in (Laplace(1e300), Gaussian(1e300), Staircase(1500.0, 1.0, gamma_s=0.5)):
        assert np.isfinite(sample_noise(mech, rng, 10_000)).all()
        assert all(math.isfinite(mech.draw(rng)) for _ in range(100))


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
    """A law whose sampler returns ``stuck`` whatever its analysed value."""

    stuck: float = math.inf

    def draw(self, rng) -> float:
        return self.stuck

    def sample(self, rng, size):
        return np.full(size, self.stuck)


@pytest.mark.parametrize("stuck", [math.inf, math.nan, 0.0])
def test_unusable_reciprocal_scale_raises(stuck):
    mech = CompoundLaplace(singleton(_StuckDraws(1.0, stuck)))
    with pytest.raises(InputDomainError):
        sample_noise(mech, np.random.default_rng(0))
    with pytest.raises(InputDomainError):
        sample_noise(mech, np.random.default_rng(0), 10)
    with pytest.raises(InputDomainError):
        perturb(mech, 3.0, np.random.default_rng(0))


class _ScriptedUniforms:
    """Stands in for a Generator: ``random`` hands out the scripted values in
    order, then ``then`` for ever, or seeded draws when ``then`` is None."""

    def __init__(self, script, then=None):
        self._script = list(script)
        self._then = then
        self._rng = np.random.default_rng(0)

    def random(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = np.empty(n)
        take = min(n, len(self._script))
        out[:take] = self._script[:take]
        del self._script[:take]
        out[take:] = self._rng.random(n - take) if self._then is None else self._then
        return float(out[0]) if size is None else out.reshape(size)


_ZERO_OR_HALF = [0.0, 0.5, 0.5, 0.0]
_ON_A_UNIT_COMBO = [Laplace(1.0), CompoundLaplace(singleton(Degenerate(1.0)))]


@pytest.mark.parametrize("mech", _ON_A_UNIT_COMBO, ids=lambda m: type(m).__name__)
def test_uniform_draws_of_zero_or_one_half_are_drawn_again(mech):
    # u = 0 would give log 0 and u = 1/2 zero noise; both are drawn again,
    # also when a redraw hits one of them
    assert Laplace(1.0).draw(_ScriptedUniforms(_ZERO_OR_HALF + [0.25])) == np.log(0.5)
    assert sample_noise(mech, _ScriptedUniforms(_ZERO_OR_HALF + [0.75])) == -np.log(0.5)
    for size in (4, (2, 3)):
        for draw in (lambda r: standard_laplace(r, size), lambda r: sample_noise(mech, r, size)):
            noise = draw(_ScriptedUniforms([0.0, 0.3, 0.5, 0.5, 0.0, 0.5, 0.75]))
            assert noise.shape == np.empty(size).shape
            assert np.all(np.isfinite(noise)) and np.all(noise != 0.0)
            # an ordinary draw keeps its place and its value
            assert noise.flat[1] == np.log(0.6)


@pytest.mark.parametrize("mech", _ON_A_UNIT_COMBO, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("stuck", [0.0, 0.5])
def test_uniform_draws_stuck_at_zero_or_one_half_raise(mech, stuck):
    with pytest.raises(InputDomainError):
        Laplace(1.0).draw(_ScriptedUniforms([], then=stuck))
    with pytest.raises(InputDomainError):
        standard_laplace(_ScriptedUniforms([], then=stuck), 10)
    with pytest.raises(InputDomainError):
        sample_noise(mech, _ScriptedUniforms([], then=stuck))
    with pytest.raises(InputDomainError):
        sample_noise(mech, _ScriptedUniforms([0.3] * 9, then=stuck), 10)
    with pytest.raises(InputDomainError):
        perturb(mech, 3.0, _ScriptedUniforms([], then=stuck))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 1001])
def test_laplace_batch_is_its_scalar_draws(n):
    # lengths around the vector width, so the log's remainder lanes run too
    rng, rng2 = np.random.default_rng(n), np.random.default_rng(n)
    scalar = [sample_noise(Laplace(0.7), rng) for _ in range(n)]
    assert np.array_equal(sample_noise(Laplace(0.7), rng2, n), scalar)


def test_standard_laplace_is_the_unit_laplace_law():
    noise = standard_laplace(np.random.default_rng(11), 400_000)
    assert stats.kstest(noise[:100_000], stats.laplace.cdf).pvalue > 0.01
    a = np.abs(noise)
    # |L| is Exp(1): mean 1 and variance 1
    assert abs(a.mean() - 1.0) < 4 / math.sqrt(a.size)
    for t in (0.05, 0.7, 3.0):
        p = -math.expm1(-t)
        assert abs(np.mean(a <= t) - p) < 4 * math.sqrt(p * (1 - p) / a.size)


@pytest.mark.parametrize(
    "mech",
    [Laplace(0.7), Gaussian(1.3), Staircase(1.0, 1.0)]
    + [CompoundLaplace(singleton(d, 0.8)) for d in _ONE_PER_FAMILY]
    + [CompoundLaplace(LinearCombo(((0.5, Gamma(2.0, 1.0)), (0.5, Bernoulli(0.3, 0.5, 2.0)),
                                    (0.5, Uniform(0.2, 4.0)))))],
    ids=lambda m: type(m).__name__,
)
def test_batches_keep_a_tuple_size(mech):
    noise = sample_noise(mech, np.random.default_rng(5), (40, 3))
    assert noise.shape == (40, 3)
    assert np.all(np.isfinite(noise)) and np.all(noise != 0.0)


class _GeneralPath(CompoundLaplace):
    """Releases through the general compound path, which draws the scale:
    without atom scales, a draw and a batch both take it."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_atoms", None)


# point masses and two-atom laws, bare and as singletons; for most of the
# coefficients a and atoms x, 1/(a x) and 1/a/x differ in the last bit, so
# a scale computed in another order shows.  The last law is the usefulness
# optimum at epsilon 200, sensitivity 1 and gamma 0.1
_ATOM_LAWS = (
    Degenerate(2.0),
    singleton(Degenerate(3.7), 0.8),
    singleton(Degenerate(2.5), 1.3e5),
    Bernoulli(0.3, 0.5, 2.0),
    singleton(Bernoulli(0.3, 2.5, 40.0), 0.6395754189465028),
    singleton(Bernoulli(0.4, 0.1, 22.609896714152573), 0.8),
    # an atom of weight 0 is never drawn, so it may lie below 1e-300
    singleton(Bernoulli(0.0, 1e-310, 2.0), 0.7),
    singleton(Bernoulli(1.0, 0.5, 1e-310), 0.7),
    singleton(Bernoulli(1.4286489991713187e-84, 1.1111109382809299, 377.5982698192585)),
)


@pytest.mark.parametrize("law", _ATOM_LAWS, ids=repr)
def test_atom_laws_release_as_the_general_path_does(law):
    atoms, general = CompoundLaplace(law), _GeneralPath(law)
    assert atoms._atoms is not None and atoms == CompoundLaplace(law)
    assert repr(atoms) == f"CompoundLaplace(combo={law!r})"

    def releases(mech):
        rng = np.random.default_rng(23)
        scalar = [sample_noise(mech, rng) for _ in range(500)]
        batches = [sample_noise(mech, rng, size) for size in (1, 1, 7, (4, 3), 1000)]
        released = [perturb(mech, 3.0, rng) for _ in range(200)]
        return scalar, batches, released, rng.bit_generator.state

    scalar, batches, released, state = releases(atoms)
    scalar0, batches0, released0, state0 = releases(general)
    assert all(type(x) is float for x in scalar + released)
    assert np.array_equal(scalar, scalar0) and np.array_equal(released, released0)
    for batch, batch0 in zip(batches, batches0):
        assert batch.shape == batch0.shape and np.array_equal(batch, batch0)
        assert np.all(np.isfinite(batch)) and np.all(batch != 0.0)
    assert state == state0


@pytest.mark.parametrize("law", [Degenerate(1.0), singleton(Bernoulli(0.4, 0.5, 2.0), 0.8)],
                         ids=repr)
def test_atom_laws_redraw_zero_or_one_half_as_the_general_path_does(law):
    # a two-atom law takes its first uniforms to pick atoms, so one script
    # puts a 0 or 1/2 in the Laplace draws of each kind of law
    for script in ([0.0, 0.5, 0.5, 0.0, 0.75, 0.3, 0.5, 0.25],
                   [0.3, 0.0, 0.5, 0.6, 0.0, 0.5, 0.75, 0.25]):
        for draw in [lambda m, size=size: sample_noise(m, _ScriptedUniforms(script), size)
                     for size in (None, 1, 4, (2, 3))] + [
                         lambda m: perturb(m, 3.0, _ScriptedUniforms(script))]:
            out, out0 = draw(CompoundLaplace(law)), draw(_GeneralPath(law))
            assert np.array_equal(out, out0)
            assert np.all(np.isfinite(out)) and np.all(out != 0.0)


@pytest.mark.parametrize("law", [
    Degenerate(1e-310),
    singleton(Bernoulli(0.5, 1e-310, 2.0)),
    singleton(Bernoulli(0.0, 2.0, 1e-310)),
    singleton(Degenerate(1e-200), 1e-101),
    singleton(Degenerate(1e300), 1e10),
    singleton(Bernoulli(0.5, 2.0, 1e300), 1e10),
], ids=repr)
def test_atoms_that_cannot_be_released_are_refused(law):
    # the general path would release a two-atom law conditioned on its other
    # atom, and redraw a tiny point mass 100 times before it raised
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for release in (lambda: sample_noise(CompoundLaplace(law), rng),
                    lambda: sample_noise(CompoundLaplace(law), rng, 10),
                    lambda: perturb(CompoundLaplace(law), 3.0, rng)):
        with pytest.raises(ValueError, match="cannot be released"):
            release()
    assert rng.bit_generator.state == state


def _staircase_where(epsilon, sensitivity, gamma_s, rng, size):
    """The batch draw as ``np.where`` and a +-1 array formed it: the oracle
    that ``staircase_sample``'s whole-array passes must match bit for bit."""
    g = gamma_s if gamma_s is not None else staircase_default_width(epsilon)
    b = math.exp(-epsilon)
    p_lower = g / (g + b * (1.0 - g))
    k = rng.geometric(1.0 - b, size) - 1
    lower = rng.random(size) < p_lower
    u = rng.random(size)
    offset = np.where(lower, g * u, g + (1.0 - g) * u)
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return sign * (k + offset) * sensitivity


@pytest.mark.parametrize("gamma_s", [None, 0.3, 1.0])
@pytest.mark.parametrize("sensitivity", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("epsilon", [0.01, 0.3, 1.0, 5.0, 20.0, 40.0])
def test_staircase_batch_is_bitwise_the_where_form(epsilon, sensitivity, gamma_s):
    for seed, size in enumerate((1, 7, 2000, (3, 4))):
        ours = staircase_sample(epsilon, sensitivity, gamma_s, np.random.default_rng(seed), size)
        oracle = _staircase_where(epsilon, sensitivity, gamma_s, np.random.default_rng(seed), size)
        assert ours.shape == oracle.shape and ours.dtype == oracle.dtype == np.float64
        assert ours.tobytes() == oracle.tobytes(), (size, seed)


class _ScriptedRng:
    """A generator stand-in that hands out fixed draws, in call order."""

    def __init__(self, geometric, *uniforms):
        self._geometric, self._uniforms = np.array(geometric), list(map(np.array, uniforms))

    def geometric(self, p, size):
        return self._geometric.copy()

    def random(self, size):
        return self._uniforms.pop(0).astype(float)


def test_staircase_batch_signs_zero_and_one_half_as_before():
    # k = 1 and u = 0 in the lower sub-band give a zero magnitude, whose sign
    # is the coin's; a coin of exactly 1/2 is a plus, a coin below it a minus
    draws = (np.array([1, 1, 1, 2]), np.array([0.0, 0.0, 0.0, 0.9]),
             np.array([0.0, 0.0, 0.0, 0.25]), np.array([0.5, 0.25, 0.75, 0.5]))
    ours = staircase_sample(1.0, 1.0, 0.3, _ScriptedRng(*draws), 4)
    oracle = _staircase_where(1.0, 1.0, 0.3, _ScriptedRng(*draws), 4)
    assert ours.tobytes() == oracle.tobytes()
    assert [math.copysign(1.0, v) for v in ours] == [1.0, -1.0, 1.0, 1.0]
    assert ours[0] == 0.0 and ours[3] == 1.0 + 0.3 + 0.7 * 0.25


# --- the release ladder that the bound draws replace -----------------------
#
# perturb -> sample_noise -> an isinstance ladder -> standard_laplace, the
# staircase's scalar branch, or LinearCombo.sample and each family's
# size=None branch, as they stood before each mechanism bound its draw.
# Every release and scalar sample_noise value must equal it bit for bit.


def _ladder_laplace(rng):
    v = 2.0 * rng.random()
    if 0.0 < v < 1.0:
        return float(np.log(v))
    if v > 1.0:
        return -float(np.log(2.0 - v))
    return float(_laplace_of_doubled(rng, np.array([v]))[0])


def _ladder_scale(law, rng):
    if isinstance(law, LinearCombo):
        total = 0.0
        for a, d in law.terms:
            total += a * _ladder_scale(d, rng)
        return total
    kind = type(law)
    if kind is Degenerate:
        return law.value
    if kind is Bernoulli:
        u = rng.random(None)
        return law.x0 if u < law.p else law.x1
    if kind is Gamma:
        return rng.gamma(law.shape, law.scale, None)
    if kind is Uniform:
        u = rng.random(None)
        u *= law.hi - law.lo
        u += law.lo
        return u
    if kind is TruncGaussian:
        if law._tail is None:
            lo, hi = law._cdf
            z = special.ndtri(lo + (hi - lo) * rng.random(None))
        else:
            s, log_near, frac = law._tail
            z = -s * special.ndtri_exp(log_near + np.log1p(-frac * rng.random(None)))
        x = law.mu + law.sigma * z
        return float(min(max(x, law.lo), law.hi))
    return law.draw(rng)  # a test's stand-in law


def _ladder_noise(mech, rng):
    """``sample_noise(mech, rng)``."""
    if type(mech) is CompoundLaplace and mech._atoms is not None:
        p, b0, b1, _ = mech._atoms
        return (b0 if p is None or rng.random() < p else b1) * _ladder_laplace(rng)
    if isinstance(mech, Laplace):
        noise = _ladder_laplace(rng)
        noise *= mech.b
        return noise
    if isinstance(mech, Gaussian):
        return rng.normal(0.0, mech.sigma, None)
    if isinstance(mech, Staircase):
        g = mech.gamma_s if mech.gamma_s is not None else staircase_default_width(mech.epsilon)
        b = math.exp(-mech.epsilon)
        p_lower = g / (g + b * (1.0 - g))
        k = rng.geometric(1.0 - b) - 1
        lower = rng.random() < p_lower
        u = rng.random()
        offset = g * u if lower else g + (1.0 - g) * u
        sign = -1.0 if rng.random() < 0.5 else 1.0
        return sign * (k + offset) * mech.sensitivity
    if isinstance(mech, CompoundLaplace):
        scale = _ladder_scale(mech.combo, rng)
        for _ in range(100):
            if not scale < 1e-300:
                break
            scale = _ladder_scale(mech.combo, rng)
        if not 1e-300 <= scale < math.inf:
            raise InputDomainError(f"reciprocal scale {scale} is not finite and positive")
        return float((1.0 / scale) * _ladder_laplace(rng))
    raise InputDomainError(f"{type(mech).__name__} does not produce additive noise")


def _ladder_perturb(mech, true_value, rng):
    if isinstance(mech, RandomizedResponse):
        if true_value not in (0, 1):
            raise InputDomainError(
                f"randomized response needs a bit in {{0, 1}}, got {true_value}"
            )
        keep = rng.random() < mech.p
        return float(true_value if keep else 1 - true_value)
    return float(true_value + _ladder_noise(mech, rng))


def _committed_mechanisms():
    """{name: mechanism} for every section of perfbench/mechanisms.ini."""
    build = {
        "laplace": lambda sec: Laplace(float(sec["b"])),
        "staircase": lambda sec: Staircase(float(sec["epsilon"]), 1.0),
        "gaussian": lambda sec: Gaussian(float(sec["sigma"])),
        "randomized_response": lambda sec: RandomizedResponse(float(sec["p"])),
        "compound": lambda sec: CompoundLaplace(parse_combo(sec["combo"])),
    }
    parser = configparser.ConfigParser()
    if not parser.read(MECHANISMS_INI):
        raise FileNotFoundError(MECHANISMS_INI)
    return {name: build[sec["kind"]](sec) for name, sec in parser.items() if "kind" in sec}


_RELEASED = {
    **_committed_mechanisms(),
    "compound_point_mass": CompoundLaplace(singleton(Degenerate(2.0))),
    "compound_two_atom_ci": CompoundLaplace(singleton(Bernoulli(0.3, 2.5, 40.0))),
    "compound_bare_gamma": CompoundLaplace(Gamma(2.0, 0.7)),
    "staircase_gamma_s": Staircase(0.7, 2.0, gamma_s=0.3),
    "staircase_eps_small": Staircase(0.05, 1.0),
    "gaussian_wide": Gaussian(1e3),
    "randomized_response_low": RandomizedResponse(0.05),
}


@pytest.mark.parametrize("name", sorted(_RELEASED))
def test_bound_draws_release_the_ladders_bits(name):
    mech = _RELEASED[name]
    additive = not isinstance(mech, RandomizedResponse)
    for seed in (0, 1, 2):
        ours, ladder = np.random.default_rng(seed), np.random.default_rng(seed)
        values = [float(i % 2) if not additive else 3.0 + i for i in range(2000)]
        released = [perturb(mech, v, ours) for v in values]
        expected = [_ladder_perturb(mech, v, ladder) for v in values]
        assert all(type(x) is float for x in released)
        assert [x.hex() for x in released] == [x.hex() for x in expected], seed
        if additive:
            noise = [sample_noise(mech, ours) for _ in range(2000)]
            expected = [_ladder_noise(mech, ladder) for _ in range(2000)]
            assert [type(x) for x in noise] == [type(x) for x in expected]
            assert [x.hex() for x in noise] == [x.hex() for x in expected], seed
        assert ours.bit_generator.state == ladder.bit_generator.state


# a uniform of 0 or 1/2 where each kind of law draws its Laplace uniform,
# with the number of uniforms that its scale takes first
_REDRAW_LAWS = ((Laplace(0.7), 0), (CompoundLaplace(singleton(Degenerate(1.5), 0.8)), 0),
                (CompoundLaplace(singleton(Bernoulli(0.4, 0.5, 2.0), 0.8)), 1),
                (CompoundLaplace(singleton(Uniform(0.5, 2.0), 0.8)), 1),
                (CompoundLaplace(LinearCombo(((0.5, Uniform(0.2, 4.0)),
                                              (0.5, Degenerate(1.0))))), 1))


@pytest.mark.parametrize("mech, scale_uniforms", _REDRAW_LAWS, ids=repr)
def test_bound_draws_redraw_zero_or_one_half_as_the_ladder_does(mech, scale_uniforms):
    for script in ([0.0, 0.5, 0.5, 0.0, 0.75, 0.3, 0.5, 0.25],
                   [0.3, 0.0, 0.5, 0.6, 0.0, 0.5, 0.75, 0.25],
                   [0.3, 0.5] * 50 + [0.6, 0.25]):
        for ours, ladder in ((sample_noise, _ladder_noise),
                             (lambda m, r: perturb(m, 3.0, r),
                              lambda m, r: _ladder_perturb(m, 3.0, r))):
            rng, rng0 = _ScriptedUniforms(script), _ScriptedUniforms(script)
            out, out0 = ours(mech, rng), ladder(mech, rng0)
            assert out.hex() == out0.hex()
            assert math.isfinite(out) and out != 3.0 and out != 0.0
            assert rng._script == rng0._script
    for stuck in (0.0, 0.5):
        # the scale takes its uniforms, every Laplace one is stuck
        for release in (lambda r: mech.draw(r), lambda r: perturb(mech, 3.0, r)):
            with pytest.raises(InputDomainError, match="after 100 redraws"):
                release(_ScriptedUniforms([0.3] * scale_uniforms, then=stuck))


@dataclass(frozen=True)
class _ScriptedScales(Degenerate):
    """A law whose draws hand out ``script`` in order, then ``then``."""

    script: tuple = ()
    then: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_left", list(self.script))

    def draw(self, rng) -> float:
        return self._left.pop(0) if self._left else self.then

    def sample(self, rng, size):
        return np.full(size, self.then)


@pytest.mark.parametrize("script", [(0.0,), (0.0, 1e-310, 5e-301), (0.0,) * 100, (1e-320,) * 37],
                         ids=lambda s: f"{len(s)}x{s[-1]!r}")
@pytest.mark.parametrize("coeff", [1.0, 0.6])
def test_an_underflowing_scale_is_drawn_again_until_it_recovers(script, coeff):
    def release(draw):
        law = singleton(_ScriptedScales(1.0, script, 2.0), coeff)
        rng = np.random.default_rng(4)
        return draw(CompoundLaplace(law), rng), law.terms[0][1]._left, rng.bit_generator.state

    for ours, ladder in ((sample_noise, _ladder_noise),
                         (lambda m, r: perturb(m, 3.0, r),
                          lambda m, r: _ladder_perturb(m, 3.0, r))):
        out, left, state = release(ours)
        out0, left0, state0 = release(ladder)
        assert out.hex() == out0.hex() and left == left0 == [] and state == state0
    # the scale that recovered is 0 + a * 2, read after every script entry
    rng = np.random.default_rng(4)
    assert sample_noise(CompoundLaplace(singleton(_ScriptedScales(1.0, script, 2.0), coeff)),
                        rng) == Laplace(1.0 / (0.0 + coeff * 2.0)).draw(np.random.default_rng(4))


@pytest.mark.parametrize("script, then, text", [
    ((0.0,) * 101, 2.0, "reciprocal scale 0.0 is"),
    ((), 1e-310, "reciprocal scale 1e-310 is"),
    ((1e-310,), math.inf, "reciprocal scale inf is"),
    ((), math.nan, "reciprocal scale nan is"),
], ids=["101 zeros", "stays under", "under then inf", "nan"])
def test_a_scale_that_stays_unusable_raises_the_ladders_error(script, then, text):
    # 100 redraws are the cap: a 101st zero in a row raises, a 101st 2 would not
    def error(draw):
        mech = CompoundLaplace(singleton(_ScriptedScales(1.0, script, then)))
        with pytest.raises(InputDomainError) as caught:
            draw(mech, np.random.default_rng(0))
        return str(caught.value)

    assert error(sample_noise) == error(_ladder_noise)
    assert error(lambda m, r: perturb(m, 3.0, r)) == error(_ladder_noise)
    assert error(sample_noise).startswith(text)


@pytest.mark.parametrize("mech", [
    Staircase(1.0), Staircase(0.7, 2.0, gamma_s=0.3), Laplace(0.5), Gaussian(2.0),
    RandomizedResponse(0.7), CompoundLaplace(singleton(Degenerate(2.0))),
    CompoundLaplace(singleton(Bernoulli(0.3, 2.5, 40.0))), CompoundLaplace(Gamma(2.0, 0.7)),
    CompoundLaplace(LinearCombo(((0.5, Gamma(2.0, 1.0)), (0.5, Uniform(0.2, 4.0))))),
], ids=repr)
def test_repr_equality_and_hash_ignore_the_bound_draw(mech):
    fields = {f.name: getattr(mech, f.name) for f in dataclasses.fields(mech)}
    twin = type(mech)(**fields)
    assert twin == mech and hash(twin) == hash(mech)
    assert dataclasses.replace(mech) == mech
    assert repr(mech) == f"{type(mech).__name__}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"
    # the bound constants live beside the fields, never among them
    assert not {name for name in vars(mech) if name.startswith("_")} & set(fields)
    assert dataclasses.asdict(mech).keys() == fields.keys()


def _ladder_atom_batch(mech, rng, size):
    """The atom path's batch as it gathered ``table[pick]``."""
    p, b0, _, table = mech._atoms
    if p is None:
        noise = standard_laplace(rng, size)
        noise *= b0
        return noise
    pick = (rng.random(size) < p).view(np.int8)
    noise = standard_laplace(rng, size)
    noise *= table[pick]
    return noise


@pytest.mark.parametrize("law", _ATOM_LAWS, ids=repr)
def test_atom_batches_gather_the_indexed_scales(law):
    mech = CompoundLaplace(law)
    for seed, size in enumerate((1, 7, 2000, 200_000, (3, 4))):
        ours = sample_noise(mech, np.random.default_rng(seed), size)
        oracle = _ladder_atom_batch(mech, np.random.default_rng(seed), size)
        assert ours.shape == oracle.shape and ours.dtype == oracle.dtype == np.float64
        assert ours.tobytes() == oracle.tobytes(), size
