"""Energy-scaled detector response along the static diamond worldline.

The Wightman function of the massless field, pulled back to the static
worldline and divided by the energy-scaling factors cosh^2(a eta/2)
cosh^2(a eta'/2), equals the correlation function seen by a uniformly
accelerated detector,

    W(d) = -(a^2/16 pi^2) / sinh^2(a d / 2),    d = eta - eta',

so an inertial detector with its gap scaled as 1/cosh^2(a eta/2) responds
thermally at T = a / (2 pi).  The response rate is computed with a Gaussian
switching window: the vacuum part of W is subtracted and transformed in
closed form, the remainder is smooth on the real line and integrated
directly, which keeps the i*epsilon prescription out of the numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_adaptive
from .bogoliubov import _temperature_fit
from .errors import DomainError
from .geometry import DiamondScale

_SQRT_PI = math.sqrt(math.pi)


def wightman_minkowski(dt, dr, eps=0.0):
    """Massless-field Wightman function for separations (dt, dr):
    -(1/4 pi^2) / ((dt - i eps)^2 - dr^2)."""
    dt = np.asarray(dt, dtype=complex) - 1j * eps
    dr = np.asarray(dr, dtype=float)
    return -(1.0 / (4.0 * math.pi**2)) / (dt * dt - dr * dr)


def scaled_static_wightman(eta, eta_p, scale=DiamondScale(), eps=0.0):
    """W along the static worldline t = (2/a) tanh(a eta / 2), r = 0, divided
    by the energy-scaling factors cosh^2(a eta/2) cosh^2(a eta'/2)."""
    a = scale.a
    t = (2.0 / a) * np.tanh(a * np.asarray(eta) / 2.0)
    t_p = (2.0 / a) * np.tanh(a * np.asarray(eta_p) / 2.0)
    num = wightman_minkowski(t - t_p, 0.0, eps)
    return num / (np.cosh(a * np.asarray(eta) / 2.0) ** 2 * np.cosh(a * np.asarray(eta_p) / 2.0) ** 2)


def accelerated_wightman(tau, tau_p, scale=DiamondScale(), eps=0.0):
    """W along the hyperbola t = sinh(a tau)/a, x = cosh(a tau)/a."""
    a = scale.a
    tau = np.asarray(tau, dtype=float)
    tau_p = np.asarray(tau_p, dtype=float)
    dt = (np.sinh(a * tau) - np.sinh(a * tau_p)) / a
    dr = (np.cosh(a * tau) - np.cosh(a * tau_p)) / a
    return wightman_minkowski(dt, np.abs(dr), eps)


def thermal_wightman(d, scale=DiamondScale(), eps=0.0):
    """Closed form -(a^2/16 pi^2)/sinh^2(a (d - i eps)/2)."""
    a = scale.a
    x = a * (np.asarray(d, dtype=complex) - 1j * eps) / 2.0
    return -(a**2 / (16.0 * math.pi**2)) / np.sinh(x) ** 2


def identity_residual(eta_grid, scale=DiamondScale()):
    """Max relative residual between the scaled-static and accelerated forms
    of W over all pairs from eta_grid (coincidence points excluded)."""
    eta = np.asarray(eta_grid, dtype=float)
    e1, e2 = np.meshgrid(eta, eta, indexing="ij")
    mask = np.abs(e1 - e2) >= 1e-3 / scale.a
    lhs = scaled_static_wightman(e1[mask], e2[mask], scale)
    mid = accelerated_wightman(e1[mask], e2[mask], scale)
    ref = thermal_wightman(e1[mask] - e2[mask], scale)
    r1 = np.max(np.abs(lhs - ref) / np.abs(ref))
    r2 = np.max(np.abs(mid - ref) / np.abs(ref))
    return float(max(r1, r2))


def _sinh2_deficit(x):
    """1/sinh(x)^2 - 1/x^2, stable through x = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.1
    xs = np.where(small, 1.0, x)
    out = 1.0 / np.sinh(xs) ** 2 - 1.0 / xs**2
    x2 = np.where(small, x * x, 0.0)
    series = -1.0 / 3.0 + x2 * (1.0 / 15.0 + x2 * (-2.0 / 189.0 + x2 / 675.0))
    return np.where(small, series, out)


@dataclass(frozen=True)
class RateResult:
    value: float
    est_error: float


def _vacuum_window_rate(E, T):
    """Closed-form windowed vacuum response
    (1/4 pi^{3/2} T) e^{-T^2 E^2} - (E/4 pi) erfc(T E)."""
    from scipy.special import erfc

    return math.exp(-(T * E) ** 2) / (4.0 * math.pi**1.5 * T) - (E / (4.0 * math.pi)) * erfc(T * E)


def response_rate(E, window_time=80.0, eps=1e-8, scale=DiamondScale(), tol=1e-12):
    """Detector response rate per unit scaled time a*eta at energy gap E.

    window_time is the Gaussian switching width in units of 1/a; for an
    eternal window the rate tends to (1/2 pi) (E/a) / (e^{2 pi E/a} - 1).
    eps only enters the smooth vacuum-subtracted integrand, so the rate is
    insensitive to halving it (the distributional limit is taken in closed
    form for the vacuum part).
    """
    a = scale.a
    Eh = E / a  # energy gap in units of a
    T = float(window_time)
    if not T > 0.0:
        raise DomainError("window_time must be positive")

    def integrand(d):
        # vacuum-subtracted thermal correlation, smooth and even in d
        x = (d - 1j * eps * a) / 2.0
        deficit = np.where(
            np.abs(x.imag) > 0.0,
            1.0 / np.sinh(x) ** 2 - 1.0 / (x * x),
            _sinh2_deficit(x.real),
        )
        dW = -(deficit / (16.0 * math.pi**2))
        return 2.0 * np.cos(Eh * d) * np.exp(-(d * d) / (4.0 * T * T)) * dW

    # the subtracted kernel only falls like 1/d^2, so the cut is set by the
    # window envelope, not by the thermal decay
    d_max = 7.0 * T
    val, err = integrate_adaptive(integrand, 1e-12, d_max, tol=tol, est_freq=abs(Eh) + 1.0)
    g = _vacuum_window_rate(Eh, T)
    return RateResult(value=float(g + np.real(val)), est_error=float(err + abs(np.imag(val))))


def expected_rate(E, scale=DiamondScale()):
    """Eternal-window thermal rate (1/2 pi) (E/a)/(e^{2 pi E/a} - 1)."""
    Eh = E / scale.a
    if Eh == 0.0:
        return 1.0 / (4.0 * math.pi**2)
    return (Eh / (2.0 * math.pi)) / math.expm1(2.0 * math.pi * Eh)


def detailed_balance(E, window_time=80.0, eps=1e-8, scale=DiamondScale()):
    """(rate(E) / rate(-E), e^{-2 pi E / a}) for comparison."""
    up = response_rate(E, window_time, eps, scale)
    down = response_rate(-E, window_time, eps, scale)
    return up.value / down.value, math.exp(-2.0 * math.pi * E / scale.a)


def fit_temperature(energies, rates, scale=DiamondScale()):
    """Temperature in units of a from rates at +-E via the balance ratio."""
    energies = np.asarray(energies, dtype=float)
    rates = np.asarray(rates, dtype=float)
    # rate(E)/rate(-E) = e^{-E/T}
    if rates.shape != (len(energies), 2):
        raise DomainError("rates must be pairs (rate(+E), rate(-E))")
    return _temperature_fit(energies / scale.a, -np.log(rates[:, 0] / rates[:, 1]))
