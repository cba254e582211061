"""(1+1)-D left-moving mode functions and the Klein-Gordon product engine.

Three mode families on the Minkowski null line V = t + x (units of a = 1):

* plane waves            u_k(V)     = exp(-i k V) / sqrt(4 pi k)
* diamond modes          g_n,w(V)   = ((1+s/2)/(1-s/2))^(-i w), s = V - 4n,
                                      supported on |V - 4n| < 2
* the exterior mode      g_ex,w(V)  = ((V/2+1)/(V/2-1))^(+i w) on |V| > 2

all divided by sqrt(4 pi w).  Each family is a plane wave in its own null
rapidity: v = 2 artanh((V-4n)/2) for diamond n (phase e^{-i w v}) and
L = ln((V+2)/(V-2)) for the exterior (phase e^{+i w L}).

Sharp single-frequency modes are distributions; the KG product engine
therefore works with Gaussian wavepackets and silently wraps sharp requests
in narrow packets (bandwidth DEFAULT_SIGMA).  The KG product

    <f, g> = -i Int dV (f dV(g*) - g* dV(f))

is evaluated by adaptive panel quadrature in the best-suited rapidity
variable, with analytic mode derivatives throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._quad import gauss_legendre, integrate_adaptive
from .errors import DomainError

DEFAULT_SIGMA = 0.02  # bandwidth used to smear sharp single-frequency requests

_TAIL = 5.5  # packet envelopes are truncated at exp(-_TAIL^2) ~ 7e-14


# ---------------------------------------------------------------------------
# mode labels

@dataclass(frozen=True)
class PlaneWave:
    k: float

    def __post_init__(self):
        if not self.k > 0.0:
            raise DomainError("plane-wave k must be positive")


@dataclass(frozen=True)
class DiamondMode:
    n: int
    omega: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise DomainError("diamond-mode omega must be positive")


@dataclass(frozen=True)
class ExteriorMode:
    omega: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise DomainError("exterior-mode omega must be positive")


def eval_mode(mode, V):
    """Sharp mode function at Minkowski null coordinate V (vectorized).

    Exactly on a support boundary the (limit) value 0 is returned; use
    boundary_mask to detect that case.
    """
    V = np.asarray(V, dtype=float)
    if isinstance(mode, PlaneWave):
        k = mode.k
        return np.exp(-1j * k * V) / math.sqrt(4.0 * math.pi * k)
    if isinstance(mode, DiamondMode):
        s = V - 4.0 * mode.n
        inside = np.abs(s) < 2.0
        out = np.zeros(V.shape, dtype=complex)
        sv = s[inside]
        ratio = (1.0 + sv / 2.0) / (1.0 - sv / 2.0)
        out[inside] = ratio ** (-1j * mode.omega) / math.sqrt(4.0 * math.pi * mode.omega)
        return out
    if isinstance(mode, ExteriorMode):
        outside = np.abs(V) > 2.0
        out = np.zeros(V.shape, dtype=complex)
        Vv = V[outside]
        ratio = (Vv / 2.0 + 1.0) / (Vv / 2.0 - 1.0)
        out[outside] = ratio ** (1j * mode.omega) / math.sqrt(4.0 * math.pi * mode.omega)
        return out
    raise TypeError(f"unknown mode label {mode!r}")


def boundary_mask(mode, V):
    """True where V sits exactly on the mode's null support boundary."""
    V = np.asarray(V, dtype=float)
    if isinstance(mode, DiamondMode):
        return np.abs(V - 4.0 * mode.n) == 2.0
    if isinstance(mode, ExteriorMode):
        return np.abs(V) == 2.0
    return np.zeros(V.shape, dtype=bool)


# ---------------------------------------------------------------------------
# wavepackets

class Profile(NamedTuple):
    """Gaussian frequency profile of a wavepacket,

        G(w) = (2 pi sigma^2)^(-1/4) exp(-(w - omega0)^2 / 4 sigma^2) e^{-i w v0},

    normalized so that Int dw |G|^2 = 1; v0 is the packet center in its
    natural null coordinate.  Every smeared quantity in the package is an
    integral over such a profile on the nodes(n) grid.
    """

    omega0: float
    sigma: float
    v0: float = 0.0

    def natural(self, a):
        """The same profile in units of a = 1."""
        return Profile(self.omega0 / a, self.sigma / a, self.v0 * a)

    def amplitude(self, om):
        """G at the frequencies om (scalar or array)."""
        return (
            (2.0 * math.pi * self.sigma**2) ** (-0.25)
            * np.exp(-((om - self.omega0) ** 2) / (4.0 * self.sigma**2))
            * np.exp(-1j * om * self.v0)
        )

    def nodes(self, n=96):
        """(om, wt, G): n Gauss-Legendre nodes over omega0 +- 8 sigma, their
        weights and the profile on them."""
        if not (self.omega0 > 0.0 and self.sigma > 0.0):
            raise DomainError("packet needs omega0 > 0 and sigma > 0")
        x, w = gauss_legendre(n)
        lo = max(self.omega0 - 8.0 * self.sigma, 1e-12)
        hi = self.omega0 + 8.0 * self.sigma
        om = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        wt = 0.5 * (hi - lo) * w
        return om, wt, self.amplitude(om)


@dataclass(frozen=True)
class Packet:
    """A frequency-smeared mode: sum_j weights[j] * (family mode at omegas[j]).

    kind is 'diamond', 'exterior' or 'plane'; n is the diamond index (ignored
    otherwise).  weights already include the frequency-quadrature weights, so
    any smooth smearing profile can be represented.  center/sigma_env locate
    the packet envelope in its natural rapidity for integration bookkeeping.
    """

    kind: str
    n: int
    omegas: np.ndarray
    weights: np.ndarray
    center: float
    sigma_env: float
    conj: bool = field(default=False)

    @property
    def sign(self) -> int:
        # natural-coordinate phase is exp(-i * sign * omega * u)
        return -1 if self.kind == "exterior" else +1

    def conjugate(self) -> "Packet":
        return replace(self, conj=not self.conj)

    def envelope_interval(self):
        half = _TAIL / self.sigma_env
        return self.center - half, self.center + half

    def max_freq(self) -> float:
        return float(np.max(self.omegas))

    def eval_natural(self, u):
        """(value, d value/du) at the packet's own natural coordinate."""
        u = np.asarray(u, dtype=float)
        amp = self.weights / np.sqrt(4.0 * math.pi * self.omegas)
        phase = np.exp((-1j * self.sign) * np.multiply.outer(u, self.omegas))
        val = phase @ amp
        dval = phase @ ((-1j * self.sign) * self.omegas * amp)
        if self.conj:
            return np.conj(val), np.conj(dval)
        return val, dval


def gaussian_packet(kind, omega0, sigma=DEFAULT_SIGMA, v0=0.0, n=0):
    """Packet with the Gaussian Profile(omega0, sigma, v0) on mode family kind."""
    # resolve the phase e^{-i w u} across omega0 +- 8 sigma and |u - v0| <= _TAIL / sigma
    n_nodes = max(128, int(12.8 * (_TAIL + sigma * abs(v0))) + 16)
    om, wt, G = Profile(omega0, sigma, v0).nodes(n_nodes)
    return Packet(kind=kind, n=n, omegas=om, weights=wt * G, center=v0, sigma_env=sigma)


def _wrap_sharp(mode):
    if isinstance(mode, Packet):
        return mode, False
    if isinstance(mode, PlaneWave):
        return gaussian_packet("plane", mode.k), True
    if isinstance(mode, DiamondMode):
        return gaussian_packet("diamond", mode.omega, n=mode.n), True
    if isinstance(mode, ExteriorMode):
        return gaussian_packet("exterior", mode.omega), True
    raise TypeError(f"not a mode or packet: {mode!r}")


# ---------------------------------------------------------------------------
# chart transforms

def _chart_V(kind, n, u):
    """Minkowski V and |dV/du| for the chart's natural coordinate u."""
    u = np.asarray(u, dtype=float)
    if kind == "diamond":
        return 4.0 * n + 2.0 * np.tanh(u / 2.0), 1.0 / np.cosh(u / 2.0) ** 2
    if kind == "exterior":
        V = 2.0 / np.tanh(u / 2.0)
        return V, 1.0 / np.sinh(u / 2.0) ** 2
    return u, np.ones(u.shape)


def _natural_in_chart(packet, chart_kind, chart_n, u):
    """Packet's natural coordinate, d(natural)/dV and validity on chart nodes.

    Uses cancellation-free expressions near the diamond tips, where V - edge
    underflows long before the rapidities stop mattering.
    """
    u = np.asarray(u, dtype=float)
    pk, pn = packet.kind, packet.n

    if pk == chart_kind and (pk != "diamond" or pn == chart_n):
        if pk == "diamond":
            dnat_dV = np.cosh(u / 2.0) ** 2
        elif pk == "exterior":
            dnat_dV = -np.sinh(u / 2.0) ** 2
        else:
            dnat_dV = np.ones(u.shape)
        return u, dnat_dV, np.ones(u.shape, dtype=bool)

    # a diamond chart: plane and exterior charts hold only same-kind packets
    if pk == "plane":
        V, _ = _chart_V("diamond", chart_n, u)
        return V, np.ones(u.shape), np.ones(u.shape, dtype=bool)
    if pk == "exterior":
        # V -+ 2 without cancellation at the adjacent-diamond tips
        Vm2 = 4.0 * (chart_n - 1) + 4.0 / (1.0 + np.exp(-u))
        Vp2 = 4.0 * chart_n + 4.0 / (1.0 + np.exp(-u))
        valid = (Vm2 > 0) == (Vp2 > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            L = np.where(valid, np.log(np.abs(Vp2)) - np.log(np.abs(Vm2)), 0.0)
            dL_dV = np.where(valid, -4.0 / (Vp2 * Vm2), 0.0)
        return L, dL_dV, valid
    if pk == "diamond":
        s_lo = 4.0 * (chart_n - pn - 1) + 4.0 / (1.0 + np.exp(-u))  # V-(4 pn-2)
        s_hi = 4.0 * (pn - chart_n - 1) + 4.0 / (1.0 + np.exp(u))  # (4 pn+2)-V
        valid = (s_lo > 0) & (s_hi > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(valid, np.log(s_lo) - np.log(s_hi), 0.0)
            dv_dV = np.where(valid, 1.0 / s_lo + 1.0 / s_hi, 0.0)
        return v, dv_dV, valid

    raise DomainError(f"no chart path for packet {pk} in chart {chart_kind}")


def _eval_in_chart(packet, chart_kind, chart_n, u):
    """(value, d value/dV) of packet on the chart nodes u."""
    nat, dnat_dV, valid = _natural_in_chart(packet, chart_kind, chart_n, u)
    val, dval_dnat = packet.eval_natural(nat)
    val = np.where(valid, val, 0.0)
    dval_dV = np.where(valid, dval_dnat * dnat_dV, 0.0)  # dnat_dV is real
    return val, dval_dV


# ---------------------------------------------------------------------------
# support logic

def _support(obj):
    """('interval', lo, hi) in V, or ('exterior',), or ('line',)."""
    if obj.kind == "diamond":
        return ("interval", 4.0 * obj.n - 2.0, 4.0 * obj.n + 2.0)
    if obj.kind == "exterior":
        return ("exterior",)
    return ("line",)


def _disjoint(p1, p2):
    s1, s2 = _support(p1), _support(p2)
    if s1[0] == "interval" and s2[0] == "interval":
        return s1[2] <= s2[1] or s2[2] <= s1[1]
    for a, b in ((s1, s2), (s2, s1)):
        if a[0] == "interval" and b[0] == "exterior":
            if a[1] >= -2.0 and a[2] <= 2.0:
                return True
    return False


@dataclass(frozen=True)
class KGProduct:
    value: complex
    est_error: float


def _pick_chart(p1, p2):
    for p in (p1, p2):
        if p.kind == "diamond":
            return "diamond", p.n, p
    for p in (p1, p2):
        if p.kind == "exterior":
            return "exterior", 0, p
    return "plane", 0, p1


def kg_product(m1, m2, tol=1e-8):
    """Klein-Gordon product <m1, m2> = -i Int dV (m1 dV m2* - m2* dV m1).

    Accepts Packet objects or sharp mode labels; sharp labels are wrapped in
    narrow Gaussian packets (DEFAULT_SIGMA), except that two sharp modes of
    the same family with overlapping support are rejected as distributional,
    and plane with exterior packets are rejected before any quadrature.
    """
    p1, sharp1 = _wrap_sharp(m1)
    p2, sharp2 = _wrap_sharp(m2)
    if {p1.kind, p2.kind} == {"plane", "exterior"}:
        # the exterior-chart quadrature of this pair never meets its tolerance
        raise DomainError("no KG product between plane and exterior packets")
    if sharp1 and sharp2 and p1.kind == p2.kind and not _disjoint(p1, p2):
        raise DomainError(
            "product of two sharp same-family modes is distributional; "
            "smear at least one into a wavepacket"
        )
    if _disjoint(p1, p2):
        return KGProduct(0.0 + 0.0j, 0.0)

    chart_kind, chart_n, owner = _pick_chart(p1, p2)
    lo, hi = owner.envelope_interval()
    freq = p1.max_freq() + p2.max_freq()

    def integrand(u):
        _, jac = _chart_V(chart_kind, chart_n, u)
        f, df = _eval_in_chart(p1, chart_kind, chart_n, u)
        g, dg = _eval_in_chart(p2, chart_kind, chart_n, u)
        return -1j * jac * (f * np.conj(dg) - np.conj(g) * df)

    val, err = integrate_adaptive(integrand, lo, hi, tol=tol, est_freq=freq)
    return KGProduct(complex(val), float(err))
