"""Vacuum thermality and entanglement for diamond-localized field modes.

A massless (1+1)-D field restricted to a causal diamond in flat spacetime
has a discrete conformal mode basis whose vacuum occupation is thermal at
T = a / 2 pi, where a sets the diamond size.  This package computes the
mode functions and their Klein-Gordon overlaps, the plane-wave expansion
coefficients, the smeared thermal spectrum, correlations between diamonds
in a chain, Gaussian covariance matrices with a two-mode squeezing witness,
and the response of an energy-scaled detector.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
)
from .modes import (
    Packet,
    Profile,
    kg_product,
)
from .bogoliubov import (
    ab_coefficients,
    ab_numeric,
    completeness_check,
    fit_temperature,
    planck_occupation,
    thermal_occupation,
)
from .correlations import (
    CrossMoments,
    adjacent_moments_analytic,
    alpha_beta_adjacent,
    alpha_beta_numeric,
    asymptotic_moment,
    cross_moments,
    smeared_asymptotic_moment,
)
from .gaussian import (
    CovarianceMatrix,
    WavepacketSpec,
    build_covariance,
    fig2_sweep,
    joint_variance,
    mode_variance,
    squeezing_witness,
)
from .detector import (
    expected_rate,
    identity_residual,
    response_rate,
    response_rates,
    worldline_clock,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "PoleError",
    "Packet",
    "Profile",
    "kg_product",
    "ab_coefficients",
    "ab_numeric",
    "completeness_check",
    "fit_temperature",
    "planck_occupation",
    "thermal_occupation",
    "CrossMoments",
    "adjacent_moments_analytic",
    "alpha_beta_adjacent",
    "alpha_beta_numeric",
    "asymptotic_moment",
    "cross_moments",
    "smeared_asymptotic_moment",
    "CovarianceMatrix",
    "WavepacketSpec",
    "build_covariance",
    "fig2_sweep",
    "joint_variance",
    "mode_variance",
    "squeezing_witness",
    "expected_rate",
    "identity_residual",
    "response_rate",
    "response_rates",
    "worldline_clock",
    "__version__",
]
