"""Every public function, called with NaN in each numeric argument, fails fast:
DomainError (or the documented IndexError or TypeError) within 1 s and
without a warning, never a NaN result or a late, misleading error."""

import functools
import math
import time
import warnings

import pytest

import diamondfield
from diamondfield import (
    Packet,
    Profile,
    WavepacketSpec,
    ab_coefficients,
    ab_numeric,
    adjacent_moments_analytic,
    alpha_beta_adjacent,
    alpha_beta_numeric,
    asymptotic_moment,
    build_covariance,
    completeness_check,
    cross_moments,
    expected_rate,
    fig2_sweep,
    identity_residual,
    joint_variance,
    kg_product,
    mode_variance,
    planck_occupation,
    response_rate,
    response_rates,
    smeared_asymptotic_moment,
    squeezing_witness,
    thermal_occupation,
    worldline_clock,
)
from diamondfield import bogoliubov, detector
from diamondfield.errors import DomainError
from diamondfield.specfun import gamma_complex, kummer_m

NAN, INF = math.nan, math.inf


@functools.cache
def _cov():
    return build_covariance([WavepacketSpec(0, 1.0), WavepacketSpec(1, 1.1)])


def _checked_profile(*args):
    return Profile(*args).checked()  # a Profile is a plain tuple; checked() states its domain


def _with_cov(fn):
    return lambda *args: fn(_cov(), *args)


_PACKET = Packet(0, 1.0)

# name -> (call, arguments inside the domain); every numeric leaf of the
# arguments, also inside tuples and lists, is replaced by NaN in turn
TABLE = {
    "Packet": (Packet, (0, 1.0, 0.02, 0.0)),
    "Profile": (_checked_profile, (1.0, 0.02, 0.0)),
    "kg_product": (kg_product, (_PACKET, _PACKET)),
    "ab_coefficients": (ab_coefficients, (1.0, [0.5, 1.0], 0)),
    "ab_numeric": (ab_numeric, (1.0, 1.0, 0)),
    "completeness_check": (completeness_check, (1.0, 0.02)),
    "fit_temperature": (bogoliubov.fit_temperature, ([0.5, 1.0], [0.04, 0.002])),
    "planck_occupation": (planck_occupation, (1.0, 0.02)),
    "thermal_occupation": (thermal_occupation, (1.0, 0.02, 0.0)),
    "adjacent_moments_analytic": (adjacent_moments_analytic, ((1.0, 0.02, 0.0), (1.0, 0.02, 0.0))),
    "alpha_beta_adjacent": (alpha_beta_adjacent, (1.0, 1.3)),
    "alpha_beta_numeric": (alpha_beta_numeric, (1.0, 1.3, 2)),
    "asymptotic_moment": (asymptotic_moment, (10, 1.0, 1.3)),
    "cross_moments": (cross_moments, ((1.0, 0.02, 0.0), (1.0, 0.02, 0.0), 2)),
    "smeared_asymptotic_moment": (smeared_asymptotic_moment, ((1.0, 0.02, 0.0), (1.0, 0.02, 0.0), 10)),
    "WavepacketSpec": (WavepacketSpec, (0, 1.0, 0.02, 0.0)),
    "build_covariance": (build_covariance, ([WavepacketSpec(0, 1.0)],)),
    "fig2_sweep": (fig2_sweep, ([0.0], [1.0], 0.02)),
    "joint_variance": (_with_cov(joint_variance), (0, 1, -1, 0.0)),
    "mode_variance": (_with_cov(mode_variance), (0, 0.0)),
    "squeezing_witness": (_with_cov(squeezing_witness), (0, 1)),
    "expected_rate": (expected_rate, (1.0,)),
    "identity_residual": (identity_residual, ([0.0, 1.0, 2.0],)),
    "response_rate": (response_rate, (1.0, 80.0, 1e-8)),
    "response_rates": (response_rates, ([0.5, 1.0], 80.0, 1e-8)),
    "worldline_clock": (worldline_clock, ([0.0, 1.0],)),
    "kummer_m": (kummer_m, (1.0 + 1.0j, 2.0, 3.0j)),
    "gamma_complex": (gamma_complex, (1.0 + 1.0j,)),
}

# result records and exception types take no input domain
NOT_CALLED = {"ConvergenceError", "DomainError", "PoleError", "CrossMoments", "CovarianceMatrix", "__version__"}

# (name, index of the NaN leaf) -> the documented exception other than DomainError
OTHER = {
    ("joint_variance", 0): IndexError,
    ("joint_variance", 1): IndexError,
    ("mode_variance", 0): IndexError,
    ("squeezing_witness", 0): IndexError,
    ("squeezing_witness", 1): IndexError,
}

# calls outside the domain that once returned a value or failed late, and
# NaN in place of the packets that kg_product and build_covariance take
EXTRA = [
    ("ab_coefficients", (1.0, 1.0, 0.5), DomainError),
    ("ab_numeric", (1.0, 1.0, 0.5), DomainError),
    ("ab_numeric", (1.0, INF), DomainError),
    ("ab_numeric", (INF, 1.0), DomainError),
    ("kummer_m", (INF, 2.0, 1.0j), DomainError),
    ("kummer_m", (1.0 + 1.0j, 2.0, complex(0.0, INF)), DomainError),
    ("gamma_complex", (INF,), DomainError),
    ("gamma_complex", (complex(1.0, -INF),), DomainError),
    ("kg_product", (NAN, _PACKET), TypeError),
    ("kg_product", (_PACKET, NAN), TypeError),
    ("build_covariance", ([NAN],), DomainError),
    ("mode_variance", (True,), IndexError),
    ("mode_variance", (0.5,), IndexError),
    ("joint_variance", (0.5, 1, 1), IndexError),
    ("squeezing_witness", (0.0, 1), IndexError),
    ("Packet", (True, 1.0), DomainError),
    ("cross_moments", ((1.0, 0.02, 0.0), (1.0, 0.02, 0.0), True), DomainError),
]


def _leaves(args, path=()):
    """Paths to the numeric leaves of args, through tuples and lists."""
    for i, x in enumerate(args):
        if isinstance(x, (tuple, list)):
            yield from _leaves(x, path + (i,))
        elif isinstance(x, (int, float, complex)) and not isinstance(x, bool):
            yield path + (i,)


def _replace(args, path, value):
    items = list(args)
    items[path[0]] = value if len(path) == 1 else _replace(args[path[0]], path[1:], value)
    return type(args)(items)


def _cases():
    for name, (_, args) in TABLE.items():
        for k, path in enumerate(_leaves(args)):
            yield pytest.param(name, _replace(args, path, NAN), OTHER.get((name, k), DomainError),
                               id=f"{name}-nan{k}")
    for k, (name, args, raises) in enumerate(EXTRA):
        yield pytest.param(name, args, raises, id=f"{name}-extra{k}")


def test_table_covers_every_public_function():
    assert set(TABLE) == set(diamondfield.__all__) - NOT_CALLED | {"kummer_m", "gamma_complex"}


@pytest.mark.parametrize("name,args,raises", list(_cases()))
def test_non_finite_arguments_fail_fast(name, args, raises):
    call = TABLE[name][0]
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the case
        with pytest.raises(raises):
            call(*args)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("name", list(TABLE))
def test_domain_arguments_run(name):
    # the table's own arguments lie inside each domain
    call, args = TABLE[name]
    call(*args)


def test_clock_tips_at_infinite_eta():
    assert worldline_clock([-INF, INF]).tolist() == [-2.0, 2.0]
    assert detector.worldline_clock is worldline_clock
