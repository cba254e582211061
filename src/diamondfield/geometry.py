"""Diamond coordinate system.

Maps between Minkowski coordinates (t, x, y, z) and diamond coordinates
(eta, xi, zeta, rho) for the bounded region |t| + r < 2, plus the line
element and the static worldline clock.  Every formula depends on the
diamond size only through a * (coordinate), so coordinates are in units
of 1/a: the diamond has half-width 2 and its static observer lifetime 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, OutsideDiamondError, SingularMapError


@dataclass(frozen=True)
class MinkowskiEvent:
    t: float
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class DiamondEvent:
    eta: float
    xi: float
    zeta: float
    rho: float


def _check_finite(*vals):
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("non-finite coordinate")


def to_diamond(e: MinkowskiEvent) -> DiamondEvent:
    """Map an interior Minkowski event to diamond coordinates."""
    _check_finite(e.t, e.x, e.y, e.z)
    t, x, y, z = e.t, e.x, e.y, e.z
    r = math.sqrt(x * x + y * y + z * z)
    if abs(t) + r >= 2.0:
        raise OutsideDiamondError("event on or outside the diamond null boundary")
    f = 1.0 - (t / 2.0) ** 2 + (r / 2.0) ** 2 - x
    if f <= 0.0:
        raise SingularMapError("coordinate map denominator f <= 0")
    q = 1.0 + t * t / 4.0 - r * r / 4.0
    eta = math.atanh(t / q)
    xi = math.log(math.sqrt(q * q - t * t) / f)
    zeta = 2.0 * y / f
    rho = 2.0 * z / f
    return DiamondEvent(eta, xi, zeta, rho)


def to_minkowski(d: DiamondEvent) -> MinkowskiEvent:
    """Closed-form inverse of to_diamond.

    With f the map denominator, to_diamond gives q = f e^xi cosh(eta) and
    t = f e^xi sinh(eta), and its definitions of q and f give x = 2 - q - f
    and 4 (q - 1) = t^2 - r^2.  Eliminating t, x, y = zeta f/2, z = rho f/2:

        f = 4 / (1 + 2 e^xi cosh(eta) + e^{2 xi} + (zeta^2 + rho^2)/4) > 0,

    a sum of positive terms (the equivalent (1 + e^xi cosh eta)^2 -
    e^{2 xi} sinh^2 eta cancels catastrophically at large |eta|, |xi|).
    Images that round onto the null boundary fail the round-trip check and
    raise ConvergenceError.
    """
    _check_finite(d.eta, d.xi, d.zeta, d.rho)
    eta, xi, zeta, rho = d.eta, d.xi, d.zeta, d.rho

    try:
        e_xi = math.exp(xi)
        q_f, t_f = e_xi * math.cosh(eta), e_xi * math.sinh(eta)  # q / f, t / f
    except OverflowError:
        raise ConvergenceError("to_minkowski: coordinates overflow double precision") from None
    f = 4.0 / (1.0 + 2.0 * q_f + e_xi * e_xi + (zeta * zeta + rho * rho) / 4.0)
    out = np.array([f * t_f, 2.0 - f * (1.0 + q_f), 0.5 * zeta * f, 0.5 * rho * f])

    try:
        dd = to_diamond(MinkowskiEvent(*out))
    except ValueError:  # outside the diamond, singular map or non-finite image
        raise ConvergenceError("to_minkowski: image is not inside the diamond") from None
    res = (dd.eta - eta, dd.xi - xi, dd.zeta - zeta, dd.rho - rho)
    if max(abs(r) for r in res) > 1e-10:
        raise ConvergenceError("to_minkowski inversion residual above 1e-10")
    return MinkowskiEvent(*out)


def line_element(d: DiamondEvent, dd: DiamondEvent) -> float:
    """ds^2 for a small displacement dd taken at the diamond event d."""
    # transverse coefficient is 1/8, pinned by the pullback of the
    # Minkowski interval through the coordinate map (see tests)
    conf = math.cosh(d.eta) + math.cosh(d.xi) + 0.125 * math.exp(-d.xi) * (d.zeta**2 + d.rho**2)
    num = 4.0 * (dd.eta**2 - dd.xi**2) - math.exp(-2.0 * d.xi) * (dd.zeta**2 + dd.rho**2)
    return num / conf**2


def worldline_clock(eta):
    """Minkowski time on the static worldline, elementwise: t = 2 tanh(eta / 2)."""
    return 2.0 * np.tanh(np.asarray(eta) / 2.0)
