"""Energy-scaled detector response along the static diamond worldline.

The Wightman function of the massless field, pulled back to the static
worldline and divided by the energy-scaling factors cosh^2(a eta/2)
cosh^2(a eta'/2), equals the correlation function seen by a uniformly
accelerated detector,

    W(d) = -(a^2/16 pi^2) / sinh^2(a d / 2),    d = eta - eta',

so an inertial detector with its gap scaled as 1/cosh^2(a eta/2) responds
thermally at T = a / (2 pi).  Times are in units of 1/a and energies in units
of a, so T = 1/(2 pi).  identity_residual, the one public entry to the
Wightman forms, checks the identity: with the Minkowski function
W_M(dt, dr) = -(1/4 pi^2) / (dt^2 - dr^2) it compares the scaled static
form W_M(t - t', 0) / (cosh^2(eta/2) cosh^2(eta'/2)) on the worldline
t = 2 tanh(eta/2) (worldline_clock) and the accelerated form
W_M(sinh eta - sinh eta', |cosh eta - cosh eta'|) on the hyperbola
t = sinh(eta), x = cosh(eta) with the thermal form W(d).

Under a Gaussian switching window of width T the rate is the eternal rate
r(E') = (1/2 pi) E' / (e^{2 pi E'} - 1) smeared by the window in energy
(Fewster, Juarez-Aubry & Louko, CQG 33, 165003, 2016),

    rate_T(E) = (1/sqrt pi) Int e^{-x^2} r(E + x/T) dx,

the eps -> 0 limit of the i*eps prescription.  As r(-y) = r(y) + y / 2 pi,
rate_T(-E) = rate_T(E) + E / 2 pi: one integral at a = |E| gives both rates.
It is one trapezoid sum (_quad.integrate_trapezoid) on |x| <= X(T) =
pi/T + sqrt(pi^2/T^2 + 81) from the step min(1/2, T/6), a grid set by T
alone (75 nodes at T = 80); the integrand is analytic for |Im x| < T, so
the sum converges geometrically, usually in the first integrand call.
est_error bounds the error relative to the rate, which is at least r(a)
as r is convex: the halving gap against tol = _RATE_TOL r(a); the
roundings at each node of x, of a + x/T and 2 pi (a + x/T) in
e^{-2 pi E'} and of x^2 in e^{-x^2}, and the smallest normal double per
node for gradual underflow, so an underflowing rate reads unresolved; and
the cut: log r is concave (pi^2 / sinh^2(pi y) < 1/y^2), each edge lies
e^{-81} or more below the integrand at x = 0, and each tail is at most the
edge value over the log-slope there, 18 or more.  The domain is window
widths _WINDOW[0] <= T <= _WINDOW[1], 0.05 to 1e150 (60,629 nodes at
0.05, where the node budget still admits four halvings), energies
|E| <= _E_MAX = 1e300, where 2 pi |E'| stays finite, and finite eps >= 0;
outside it DomainError is raised before any arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import _EPS, integrate_trapezoid
from .bogoliubov import _temperature_fit
from .errors import DomainError

_RATE_TOL = 1e-13  # halving tolerance of the rate integral, relative to r(|E|)
_WINDOW = (0.05, 1e150)  # the window widths T of response_rates (module docstring)
_E_MAX = 1e300  # |E| of response_rates: 2 pi |E'| stays finite on every node
_ETA_MAX = 10.0  # |eta| of identity_residual (its docstring)


def worldline_clock(eta):
    """Minkowski time on the static worldline, elementwise: t = 2 tanh(eta / 2),
    in units of 1/a, so the diamond's static observer lives for -2 < t < 2;
    eta = +-inf gives the tips +-2, and a NaN raises DomainError."""
    eta = np.asarray(eta)
    if np.isnan(eta).any():
        raise DomainError("eta must not be NaN")
    return 2.0 * np.tanh(eta / 2.0)


def identity_residual(eta_grid):
    """Max relative residual of the scaled static and the accelerated form of
    W against the thermal form (module docstring), over all pairs from
    eta_grid at least 1e-3 apart.  With W_M(dt, dr) = -(1/4 pi^2) /
    (dt^2 - dr^2) and d = eta - eta', the forms are

        scaled static   W_M(t(eta) - t(eta'), 0) / (cosh^2(eta/2) cosh^2(eta'/2)),
                        t = worldline_clock, the static worldline at r = 0,
        accelerated     W_M(sinh eta - sinh eta', |cosh eta - cosh eta'|),
                        the hyperbola t = sinh(eta), x = cosh(eta),
        thermal         -(1/16 pi^2) / sinh^2(d/2),

    each in complex arithmetic.  The domain is finite eta with
    |eta| <= _ETA_MAX = 10 and at least one such pair; outside it
    DomainError is raised.  The accelerated form takes 4 sinh^2(d/2) from
    differences of sinh and cosh about e^|eta| in size, so it rounds by
    about eps e^{2|eta|} / d relative: 1e-4 at the edge for d = 1e-3, while
    at |eta| = 15.1 such a pair cancels to 0 (long before cosh^2(eta/2)
    overflows, near |eta| = 710).
    """
    eta = np.asarray(eta_grid, dtype=float)
    if not np.all(np.abs(eta) <= _ETA_MAX):  # also catches inf and NaN
        raise DomainError(f"eta_grid must be finite with |eta| <= {_ETA_MAX:g}")
    e1, e2 = np.meshgrid(eta, eta, indexing="ij")
    mask = np.abs(e1 - e2) >= 1e-3
    if not mask.any():
        raise DomainError("eta_grid needs two points at least 1e-3 apart")
    e1, e2 = e1[mask], e2[mask]
    c = -1.0 / (4.0 * math.pi**2)
    dt = (worldline_clock(e1) - worldline_clock(e2)).astype(complex)
    static = c / (dt * dt) / (np.cosh(e1 / 2.0) ** 2 * np.cosh(e2 / 2.0) ** 2)
    dt, dr = (np.sinh(e1) - np.sinh(e2)).astype(complex), np.abs(np.cosh(e1) - np.cosh(e2))
    accelerated = c / (dt * dt - dr * dr)
    thermal = -(1.0 / (16.0 * math.pi**2)) / np.sinh((e1 - e2).astype(complex) / 2.0) ** 2
    return float(max(np.max(np.abs(form - thermal) / np.abs(thermal)) for form in (static, accelerated)))


@dataclass(frozen=True)
class RateResult:
    value: float
    est_error: float


def _planck(y):
    """The eternal rate r(y) = (1/2 pi) y / (e^{2 pi y} - 1), elementwise and
    free of overflow: with u = 2 pi |y| and g = u / (1 - e^{-u}), 1 at u = 0,
    r = g e^{-u} / 4 pi^2 for y > 0 and g / 4 pi^2 for y <= 0."""
    y = np.asarray(y, dtype=float)
    u = 2.0 * math.pi * np.abs(y)
    g = np.divide(u, -np.expm1(-u), out=np.ones_like(u), where=u > 0.0)
    return np.where(y > 0.0, np.exp(-u), 1.0) * g / (4.0 * math.pi**2)


def _smeared_rate(a, T):
    """(rate_T(a), est_error) for a >= 0: the trapezoid sum of
    (1/sqrt pi) e^{-x^2} r(a + x/T) over |x| <= X(T) (module docstring)."""
    X = math.pi / T + math.sqrt((math.pi / T) ** 2 + 81.0)
    r_a = float(_planck(a))

    def integrand(x, start, h):
        y = a + x / T
        f = np.exp(-x * x) * _planck(y) / math.sqrt(math.pi)
        # roundings in units of eps |f|: 8 operations, x^2, y and 2 pi y in
        # e^{-2 pi y}, and the node x (3X eps) times the log-slope of f
        c = (8.0 + x * x + 2.0 * math.pi * (2.0 * np.abs(y) + np.abs(x) / T)
             + 3.0 * X * (2.0 * np.abs(x) + 2.0 * math.pi / T))
        return f, _EPS * c * np.abs(f) + np.finfo(float).tiny

    val, err = integrate_trapezoid(integrand, -X, X, _RATE_TOL * r_a, min(0.5, T / 6.0))
    # the two tails past +-X: each at most e^{-81} f(0) / 18, f(0) = r(a) / sqrt pi
    return float(val), err + math.exp(-81.0) * r_a / (9.0 * math.sqrt(math.pi))


def response_rates(E, window_time=80.0, eps=1e-8):
    """(rate(E), rate(-E)) as RateResults: detector response rates per unit
    scaled time a*eta at the energy gaps E and -E, from one integral.  For a
    1-D array of energies, the list of those pairs, one per energy.

    window_time is the Gaussian switching width T; for an eternal window the
    rate tends to expected_rate(E).  The rate is the eps -> 0 limit, so eps
    has no effect, but must be finite and >= 0.  Each distinct |E| takes one
    integral (module docstring).
    """
    T = float(window_time)
    energies = np.atleast_1d(np.asarray(E, dtype=float))
    if not _WINDOW[0] <= T <= _WINDOW[1]:
        raise DomainError(f"window_time must lie in [{_WINDOW[0]:g}, {_WINDOW[1]:g}], not {T!r}")
    if not np.all(np.abs(energies) <= _E_MAX):  # also catches inf and NaN
        raise DomainError(f"the energies must be finite with |E| <= {_E_MAX:g}")
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and >= 0, not {eps!r}")
    smears = {a: _smeared_rate(a, T) for a in set(np.abs(energies).tolist())}
    pairs = []
    for e in energies.tolist():
        up, err = smears[abs(e)]
        down = up + abs(e) / (2.0 * math.pi)  # without rounding at E = 0
        pair = (RateResult(up, err), RateResult(down, float(err + 2.0 * _EPS * down) if e else err))
        pairs.append(pair if e >= 0.0 else pair[::-1])
    return pairs if np.ndim(E) else pairs[0]


def response_rate(E, window_time=80.0, eps=1e-8):
    """Detector response rate per unit scaled time a*eta at energy gap E:
    the first of response_rates(E, window_time, eps)."""
    return response_rates(E, window_time, eps)[0]


def expected_rate(E):
    """Eternal-window thermal rate (1/2 pi) E/(e^{2 pi E} - 1), on the energy
    domain of response_rates: finite |E| <= _E_MAX, else DomainError."""
    E = float(E)
    if not abs(E) <= _E_MAX:  # also catches NaN
        raise DomainError(f"the energy must be finite with |E| <= {_E_MAX:g}")
    return float(_planck(E))


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
