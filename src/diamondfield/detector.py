"""Energy-scaled detector response along the static diamond worldline.

The Wightman function of the massless field, pulled back to the static
worldline and divided by the energy-scaling factors cosh^2(a eta/2)
cosh^2(a eta'/2), equals the correlation function seen by a uniformly
accelerated detector,

    W(d) = -(a^2/16 pi^2) / sinh^2(a d / 2),    d = eta - eta',

so an inertial detector with its gap scaled as 1/cosh^2(a eta/2) responds
thermally at T = a / (2 pi).  Times are in units of 1/a and energies in units
of a, so T = 1/(2 pi).  The response rate is computed with a Gaussian switching
window: the vacuum part of W is subtracted and transformed in closed form, the
remainder is smooth on the real line and integrated directly, which keeps the
i*epsilon prescription out of the numerics.

The domain of response_rate is finite energies, window widths
_WINDOW[0] <= T <= _WINDOW[1], 1e-150 to 1e150, where T^2 and 1/T^2 are
normal doubles, and regulators 0 <= eps <= min(_EPS[0], _EPS[1] / T^2),
0.1 and 20 / T^2; outside it DomainError is raised before any arithmetic.
There the kernel cannot overflow, and it takes its series where the direct
form would cancel.  The eps bound is where the quadrature converges: eps
makes the integrand's imaginary part odd in d, so its half-line trapezoid
sum converges only like h^2 eps; past about 50 / T^2 for T >= 10, and
past 0.15 or more for shorter windows, the halvings outgrow the node budget.
The rates of a whole energy grid come from one quadrature over 0 <= d <= 7T
per block of _E_ROWS energies, since only cos(E d) in the integrand depends
on E.  The integrand is even in d and analytic in the strip |Im d| < 2 pi,
so the trapezoid sum over d >= 0 with half weight at d = 0, half the sum
over the whole line, converges geometrically (_quad.integrate_trapezoid).
Its first step is min(1, pi / (2 (max|E| + 1))), so 4.46 T (max|E| + 1)
intervals once max|E| > pi/2 - 1.  One integrand call on those intervals
and their midpoints gives the first two levels, and their comparison
usually ends it: the default grid is one call of 2,141 nodes.  The node
budget (_quad._MAX_NODES) admits that call up to T (max|E| + 1) of about
117,000; ConvergenceError is raised before a larger grid is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_trapezoid
from .bogoliubov import _temperature_fit
from .errors import DomainError
from .geometry import worldline_clock

_RATE_TOL = 1e-12  # absolute halving tolerance of the response_rate integral
_E_ROWS = 4  # energies per response_rates integral: bounds its (energies x nodes) integrand
_WINDOW = (1e-150, 1e150)  # the window widths T of response_rates: T^2 and 1/T^2 stay normal
_EPS = (0.1, 20.0)  # response_rates takes eps <= min(_EPS[0], _EPS[1] / T^2)


def wightman_minkowski(dt, dr, eps=0.0):
    """Massless-field Wightman function for separations (dt, dr):
    -(1/4 pi^2) / ((dt - i eps)^2 - dr^2)."""
    dt = np.asarray(dt, dtype=complex) - 1j * eps
    dr = np.asarray(dr, dtype=float)
    return -(1.0 / (4.0 * math.pi**2)) / (dt * dt - dr * dr)


def scaled_static_wightman(eta, eta_p):
    """W along the static worldline t = worldline_clock(eta), r = 0, divided
    by the energy-scaling factors cosh^2(eta/2) cosh^2(eta'/2)."""
    num = wightman_minkowski(worldline_clock(eta) - worldline_clock(eta_p), 0.0)
    return num / (np.cosh(np.asarray(eta) / 2.0) ** 2 * np.cosh(np.asarray(eta_p) / 2.0) ** 2)


def accelerated_wightman(tau, tau_p):
    """W along the hyperbola t = sinh(tau), x = cosh(tau)."""
    tau = np.asarray(tau, dtype=float)
    tau_p = np.asarray(tau_p, dtype=float)
    dt = np.sinh(tau) - np.sinh(tau_p)
    dr = np.cosh(tau) - np.cosh(tau_p)
    return wightman_minkowski(dt, np.abs(dr))


def thermal_wightman(d):
    """Closed form -(1/16 pi^2)/sinh^2(d/2)."""
    x = np.asarray(d, dtype=complex) / 2.0
    return -(1.0 / (16.0 * math.pi**2)) / np.sinh(x) ** 2


def identity_residual(eta_grid):
    """Max relative residual between the scaled-static and accelerated forms
    of W over all pairs from eta_grid (coincidence points excluded)."""
    eta = np.asarray(eta_grid, dtype=float)
    e1, e2 = np.meshgrid(eta, eta, indexing="ij")
    mask = np.abs(e1 - e2) >= 1e-3
    lhs = scaled_static_wightman(e1[mask], e2[mask])
    mid = accelerated_wightman(e1[mask], e2[mask])
    ref = thermal_wightman(e1[mask] - e2[mask])
    r1 = np.max(np.abs(lhs - ref) / np.abs(ref))
    r2 = np.max(np.abs(mid - ref) / np.abs(ref))
    return float(max(r1, r2))


def _sinh2_deficit(x):
    """1/sinh(x)^2 - 1/x^2 for real or complex x with Re x > 0, stable through
    x = 0 and free of overflow: the series in x^2 on |x| < 0.1, elsewhere
    1/sinh(x)^2 = 4q/(1 - q)^2 with q = e^{-2x}, each on its own points."""
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.result_type(x, float))
    small = np.abs(x) < 0.1
    x2 = x[small] ** 2
    out[small] = -1.0 / 3.0 + x2 * (1.0 / 15.0 + x2 * (-2.0 / 189.0 + x2 / 675.0))
    xl = x[~small]
    q = np.exp(-2.0 * xl)
    out[~small] = 4.0 * q / (1.0 - q) ** 2 - 1.0 / (xl * xl)
    return out


@dataclass(frozen=True)
class RateResult:
    value: float
    est_error: float


def _vacuum_window_rate(E, T):
    """Closed-form windowed vacuum response
    (1/4 pi^{3/2} T) e^{-T^2 E^2} - (E/4 pi) erfc(T E)."""
    return math.exp(-(T * E) ** 2) / (4.0 * math.pi**1.5 * T) - (E / (4.0 * math.pi)) * math.erfc(T * E)


def response_rates(E, window_time=80.0, eps=1e-8):
    """(rate(E), rate(-E)) as RateResults: detector response rates per unit
    scaled time a*eta at the energy gaps E and -E, from one integral.  For a
    1-D array of energies, the list of those pairs, one per energy.

    window_time is the Gaussian switching width T; for an eternal window the
    rate tends to (1/2 pi) E / (e^{2 pi E} - 1).  eps must lie in
    [0, min(_EPS[0], _EPS[1] / T^2)] (module docstring); est_error grows
    about linearly in eps, from 5.7e-8 at 1e-4 to 1.7e-6 at 3e-3 for
    E = 0.5, 1, 2 and T = 80.  The vacuum part of W is
    transformed in closed form, so eps only enters the smooth subtracted
    integrand f(d) = 2 cos(E d) g(d), g the window times the vacuum-subtracted
    correlation, and the rate is insensitive to halving it.  f depends on E
    only through the even cos(E d), which np.cos keeps even bit for bit, so
    rate(E) and rate(-E) share its integral over 0 <= d <= 7T; and g, the
    costly complex factor, is formed once per node for every E of a block of
    _E_ROWS energies, integrated together on nested trapezoid grids from the
    step min(1, pi / (2 (max|E| + 1))) of the block.  est_error adds to the
    block's halving difference and rounding floor the cut beyond
    7T, where the window is still e^{-12.25} of its peak: the envelope
    h = 2|g| of f falls monotonically, so by parts the tail is at most
    2 h(7T) / |E|, and without the oscillation at most 2 h(7T) T^2 / 7T; the
    smaller bound is taken.
    """
    T = float(window_time)
    energies = np.atleast_1d(np.asarray(E, dtype=float))
    if not _WINDOW[0] <= T <= _WINDOW[1]:
        raise DomainError(f"window_time must lie in [{_WINDOW[0]:g}, {_WINDOW[1]:g}], not {T!r}")
    if not np.all(np.isfinite(energies)):
        raise DomainError("the energies must be finite")
    eps_max = min(_EPS[0], _EPS[1] / (T * T))
    if not 0.0 <= eps <= eps_max:
        raise DomainError(f"eps must lie in [0, {eps_max:.3g}] at window_time {T:g}, not {eps!r}: "
                          "beyond it the rate integral does not converge")

    def g(d):
        # the window times the vacuum-subtracted thermal correlation, smooth and even in d
        dW = -(_sinh2_deficit((d - 1j * eps) / 2.0) / (16.0 * math.pi**2))
        return np.exp(-(d * d) / (4.0 * T * T)) * dW

    # the subtracted kernel only falls like 1/d^2, so the cut is set by the
    # window envelope, not by the thermal decay
    d_max = 7.0 * T
    h = 2.0 * abs(g(np.array([d_max]))[0])
    pairs = []
    for i in range(0, energies.size, _E_ROWS):
        block = energies[i:i + _E_ROWS]

        def integrand(d, start, step):
            x = np.multiply.outer(block, d)
            np.cos(x, out=x)
            return x * (2.0 * g(d)), 0.0

        step = min(1.0, math.pi / (2.0 * (float(np.max(np.abs(block))) + 1.0)))
        val, err = integrate_trapezoid(integrand, 0.0, d_max, _RATE_TOL, step)
        for e, v in zip(block.tolist(), val):
            est = float(err + abs(v.imag) + 2.0 * h / max(abs(e), d_max / (T * T)))
            pairs.append(tuple(RateResult(value=float(_vacuum_window_rate(x, T) + v.real), est_error=est)
                               for x in (e, -e)))
    return pairs if np.ndim(E) else pairs[0]


def response_rate(E, window_time=80.0, eps=1e-8):
    """Detector response rate per unit scaled time a*eta at energy gap E:
    the first of response_rates(E, window_time, eps)."""
    return response_rates(E, window_time, eps)[0]


def expected_rate(E):
    """Eternal-window thermal rate (1/2 pi) E/(e^{2 pi E} - 1)."""
    if E == 0.0:
        return 1.0 / (4.0 * math.pi**2)
    return (E / (2.0 * math.pi)) / math.expm1(2.0 * math.pi * E)


def detailed_balance(E, window_time=80.0, eps=1e-8):
    """(rate(E) / rate(-E), e^{-2 pi E}) for comparison."""
    up, down = response_rates(E, window_time, eps)
    return up.value / down.value, math.exp(-2.0 * math.pi * E)


def fit_temperature(energies, rates):
    """Temperature from rates at +-E via the balance ratio."""
    energies = np.asarray(energies, dtype=float)
    rates = np.asarray(rates, dtype=float)
    # rate(E)/rate(-E) = e^{-E/T}
    if energies.ndim != 1 or rates.shape != (len(energies), 2):
        raise DomainError("energies must be 1-D and rates pairs (rate(+E), rate(-E))")
    if not np.all(np.isfinite(rates) & (rates > 0.0)):
        raise DomainError("rates must be positive and finite")
    with np.errstate(over="ignore"):  # an overflow to inf fails the check below
        ratio = rates[:, 0] / rates[:, 1]
    if not np.all(np.isfinite(ratio) & (ratio > 0.0)):
        raise DomainError("the balance ratios rate(+E) / rate(-E) must be positive and finite")
    return _temperature_fit(energies, -np.log(ratio))
