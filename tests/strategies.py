"""Shared hypothesis strategies for distribution parameterizations."""

from hypothesis import strategies as st

from dpcalib.distributions import (
    Bernoulli,
    Degenerate,
    Gamma,
    TruncGaussian,
    Uniform,
)


def degenerate_dists():
    return st.builds(Degenerate, value=st.floats(0.01, 50.0))


def bernoulli_dists():
    return st.builds(
        Bernoulli,
        p=st.floats(0.0, 1.0),
        x0=st.floats(0.01, 20.0),
        x1=st.floats(0.01, 20.0),
    )


def gamma_dists():
    return st.builds(Gamma, shape=st.floats(0.1, 30.0), scale=st.floats(0.01, 10.0))


def uniform_dists():
    return st.builds(
        lambda lo, width: Uniform(lo, lo + width),
        lo=st.floats(0.0, 10.0),
        width=st.floats(0.05, 15.0),
    )


def trunc_gaussian_dists():
    return st.builds(
        lambda mu, sigma, lo, width: TruncGaussian(mu, sigma, lo, lo + width),
        mu=st.floats(-2.0, 10.0),
        sigma=st.floats(0.05, 5.0),
        lo=st.floats(0.0, 8.0),
        width=st.floats(0.1, 20.0),
    )


def any_dist():
    return st.one_of(
        degenerate_dists(),
        bernoulli_dists(),
        gamma_dists(),
        uniform_dists(),
        trunc_gaussian_dists(),
    )
