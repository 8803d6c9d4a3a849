"""Shared test laws: hypothesis strategies for distribution
parameterizations, the compound laws the benchmark audits, a
reference for a combination's M', and a linear-program oracle for
the best law of the reciprocal scale."""

import configparser
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from scipy import optimize as sp_optimize

from dpcalib.distributions import (
    Bernoulli,
    Degenerate,
    Gamma,
    TruncGaussian,
    Uniform,
    parse_combo,
)

MECHANISMS_INI = Path(__file__).resolve().parent.parent / "perfbench" / "mechanisms.ini"
ORACLE_SCALES = np.geomspace(1e-3, 1e3, 4001)


def committed_compound_laws():
    """{name: LinearCombo} for every compound mechanism in perfbench/mechanisms.ini."""
    parser = configparser.ConfigParser()
    if not parser.read(MECHANISMS_INI):
        raise FileNotFoundError(MECHANISMS_INI)
    return {name: parse_combo(sec["combo"]) for name, sec in parser.items()
            if sec.get("kind") == "compound"}


def product_rule_deriv(combo, t):
    """M'(t) of a combination by the product rule over separate mgf and
    mgf_deriv calls per term."""
    t = np.asarray(t, float)
    active = combo.active_terms()
    vals = [d.mgf(a * t) for a, d in active]
    out = np.zeros_like(t)
    for j, (a, d) in enumerate(active):
        part = a * d.mgf_deriv(a * t)
        for i, v in enumerate(vals):
            if i != j:
                part = part * v
        out = out + part
    return out


def lp_optimum(eps: float, dq: float, payoff) -> float:
    """max E payoff(X) over laws of X on ORACLE_SCALES and the Laplace scale
    eps/dq whose epsilon is at most eps: E[X (1 - e^(eps - dq X))] <= 0 is
    ln E[X] - ln M'(-dq) <= eps."""
    x = np.union1d(ORACLE_SCALES, [eps / dq])
    res = sp_optimize.linprog(
        -payoff(x),
        A_ub=(-x * np.expm1(eps - dq * x))[None, :], b_ub=[0.0],
        A_eq=np.ones((1, x.size)), b_eq=[1.0],
        bounds=(0.0, None), method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


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
