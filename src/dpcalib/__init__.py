"""Noise calibration for differential privacy.

Compound-Laplace mechanisms represented through the moment generating
function of the reciprocal scale: closed-form epsilon-DP and Renyi-DP
guarantees, utility bounds, a utility-driven parameter optimizer, and a
benchmarking harness against Laplace and staircase baselines.
"""

from .distributions import (
    Bernoulli,
    Degenerate,
    DomainError,
    Gamma,
    LinearCombo,
    MgfDist,
    TruncGaussian,
    Uniform,
    format_combo,
    parse_combo,
    singleton,
)
from .mechanisms import (
    CompoundLaplace,
    Gaussian,
    Laplace,
    NoiseMechanism,
    RandomizedResponse,
    Staircase,
    gaussian_sigma,
    perturb,
    sample_noise,
    staircase_sample,
)
from .optimize import (
    CalibratedMechanism,
    SearchSpaceSpec,
    laplace_seed,
    optimize,
)
from .privacy import (
    PrivacySpec,
    RdpPoint,
    UnsupportedFamilyError,
    epsilon_closed_form,
    epsilon_of_combo,
    passes_necessary_condition,
    rdp_of,
    verify_epsilon_empirically,
)
from .utility import (
    Histogram,
    UtilityGoal,
    expected_metric_empirical,
    kl_divergence,
    l1_bound,
    l2_bound,
    mallows_distance,
    renyi_divergence,
    usefulness_bound,
)

__version__ = "0.1.0"
