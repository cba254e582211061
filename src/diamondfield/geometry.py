"""Diamond coordinate system.

Maps between Minkowski coordinates (t, x, y, z) and diamond coordinates
(eta, xi, zeta, rho) for the bounded region |t| + r < 2/a, plus the line
element, the static worldline clock relation and the null-coordinate map
V = (2/a) tanh(a v/2) of the diamond.  The (1+1)-D mode analysis (modes,
correlations) works at a = 1 and computes V = 4n + 2 tanh(v/2) of diamond n
inline rather than through null_map.  All formulas depend on the scale
only through a * (coordinate), so internally everything is computed with
a = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, OutsideDiamondError, SingularMapError


@dataclass(frozen=True)
class DiamondScale:
    """Inverse-size parameter a; half-width 2/a, observer lifetime 4/a."""

    a: float = 1.0

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError("diamond scale a must be positive and finite")

    @property
    def half_size(self) -> float:
        return 2.0 / self.a

    @property
    def lifetime(self) -> float:
        return 4.0 / self.a


@dataclass(frozen=True)
class MinkowskiEvent:
    t: float
    x: float
    y: float
    z: float

    @property
    def r(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)


@dataclass(frozen=True)
class DiamondEvent:
    eta: float
    xi: float
    zeta: float
    rho: float


@dataclass(frozen=True)
class NullCoordPair:
    """Minkowski null V = t + x paired with diamond null v = eta + xi."""

    V: float
    v: float
    dV_dv: float


def _check_finite(*vals):
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("non-finite coordinate")


def to_diamond(e: MinkowskiEvent, scale: DiamondScale = DiamondScale()) -> DiamondEvent:
    """Map an interior Minkowski event to diamond coordinates."""
    a = scale.a
    _check_finite(e.t, e.x, e.y, e.z)
    t, x, y, z = a * e.t, a * e.x, a * e.y, a * e.z  # work in units of 1/a
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
    return DiamondEvent(eta / a, xi / a, zeta / a, rho / a)


def to_minkowski(d: DiamondEvent, scale: DiamondScale = DiamondScale()) -> MinkowskiEvent:
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
    a = scale.a
    _check_finite(d.eta, d.xi, d.zeta, d.rho)
    eta, xi, zeta, rho = a * d.eta, a * d.xi, a * d.zeta, a * d.rho

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
    return MinkowskiEvent(*(out / a))


def line_element(
    d: DiamondEvent, dd: DiamondEvent, scale: DiamondScale = DiamondScale()
) -> float:
    """ds^2 for a small displacement dd taken at the diamond event d."""
    a = scale.a
    eta, xi = a * d.eta, a * d.xi
    zeta, rho = a * d.zeta, a * d.rho
    # transverse coefficient is a^2/8, pinned by the pullback of the
    # Minkowski interval through the coordinate map (see tests)
    conf = math.cosh(eta) + math.cosh(xi) + 0.125 * math.exp(-xi) * (zeta**2 + rho**2)
    num = 4.0 * (dd.eta**2 - dd.xi**2) - math.exp(-2.0 * xi) * (dd.zeta**2 + dd.rho**2)
    return num / conf**2


def worldline_clock(eta: float, scale: DiamondScale = DiamondScale()) -> float:
    """Minkowski time on the static worldline: t = (2/a) tanh(a eta / 2)."""
    a = scale.a
    return (2.0 / a) * math.tanh(a * eta / 2.0)


def worldline_clock_rate(eta: float, scale: DiamondScale = DiamondScale()) -> float:
    """dt/deta on the static worldline: 1/cosh^2(a eta / 2)."""
    a = scale.a
    return 1.0 / math.cosh(a * eta / 2.0) ** 2


def null_map(v: float, scale: DiamondScale = DiamondScale()) -> NullCoordPair:
    """Pair the diamond null coordinate v with Minkowski null V."""
    a = scale.a
    _check_finite(v)
    V = (2.0 / a) * math.tanh(a * v / 2.0)
    return NullCoordPair(V=V, v=v, dV_dv=1.0 / math.cosh(a * v / 2.0) ** 2)


def null_map_inverse(V: float, scale: DiamondScale = DiamondScale()) -> NullCoordPair:
    """Inverse pairing; requires |V| < 2/a strictly."""
    a = scale.a
    if not abs(V) < 2.0 / a:
        raise OutsideDiamondError("V outside the open diamond null range")
    v = (2.0 / a) * math.atanh(a * V / 2.0)
    return NullCoordPair(V=V, v=v, dV_dv=1.0 / math.cosh(a * v / 2.0) ** 2)
