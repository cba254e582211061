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

is evaluated by adaptive panel quadrature in the rapidity u of one packet's
family as -i s Int du (f du(g*) - g* du(f)), with s the sign of dV/du (-1 on
the exterior chart) and analytic mode derivatives throughout.  The engine
covers pairs of one family and plane packets with diamond packets; the
diamond-exterior overlap is the one-term rapidity integral in
diamondfield.correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._quad import gauss_legendre, integrate_adaptive, panel_nodes
from .errors import DomainError

DEFAULT_SIGMA = 0.02  # bandwidth used to smear sharp single-frequency requests

_TAIL = 5.5  # packet envelopes are truncated at exp(-_TAIL^2) ~ 7e-14
_CUT = 8.0  # frequency profiles are truncated at omega0 +- _CUT sigma
_ROWS = 4096  # nodes per phase-matrix block in Packet.eval_natural


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

    def checked(self):
        """The profile itself; DomainError unless omega0 > 0, sigma > 0 and v0
        are finite."""
        if not (0.0 < self.omega0 < math.inf and 0.0 < self.sigma < math.inf
                and math.isfinite(self.v0)):
            raise DomainError("packet needs finite omega0 > 0, sigma > 0 and v0")
        return self

    def nodes(self, n=96, root=False):
        """(om, wt, G): n Gauss-Legendre nodes over omega0 +- _CUT sigma, their
        weights and the profile on them.  With root the nodes are Gauss-Legendre
        in sqrt(omega) from omega = 0 up, so that integrands with an
        omega^{-1/2} endpoint there become smooth."""
        self.checked()
        x, w = gauss_legendre(n)
        if root:
            lo = math.sqrt(max(self.omega0 - _CUT * self.sigma, 0.0))
            hi = math.sqrt(self.omega0 + _CUT * self.sigma)
            u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            return u * u, (hi - lo) * w * u, self.amplitude(u * u)
        lo = max(self.omega0 - _CUT * self.sigma, 1e-12)
        hi = self.omega0 + _CUT * self.sigma
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
        damp = (-1j * self.sign) * self.omegas * amp
        parts, flat = [], u.ravel()
        for i in range(0, flat.size, _ROWS):  # bounds the phase matrix's memory
            phase = np.exp((-1j * self.sign) * np.multiply.outer(flat[i:i + _ROWS], self.omegas))
            parts.append((phase @ amp, phase @ damp))
        val, dval = (np.concatenate(x).reshape(u.shape) for x in zip(*parts))
        if self.conj:
            return np.conj(val), np.conj(dval)
        return val, dval


def gaussian_packet(kind, omega0, sigma=DEFAULT_SIGMA, v0=0.0, n=0):
    """Packet with the Gaussian Profile(omega0, sigma, v0) on mode family kind."""
    # resolve the phase e^{-i w u} across omega0 +- 8 sigma and |u -+ v0| <= _TAIL / sigma
    n_nodes = max(128, int(12.8 * (_TAIL + sigma * abs(v0))) + 16)
    om, wt, G = Profile(omega0, sigma, v0).nodes(n_nodes)
    # G e^{-i sign w u} peaks at u = -sign v0: -v0 for diamond and plane packets
    center = v0 if kind == "exterior" else -v0
    return Packet(kind=kind, n=n, omegas=om, weights=wt * G, center=center, sigma_env=sigma)


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
# chart evaluation and support logic

def _in_chart(packet, chart, u):
    """(value, d value/du) of packet on the nodes u of chart's natural
    coordinate.  A chart holds packets of its own family, and a diamond chart
    also plane packets, evaluated at V = 4n + 2 tanh(u/2); kg_product sends no
    other pair here."""
    if packet.kind == chart.kind:
        return packet.eval_natural(u)
    val, dval = packet.eval_natural(4.0 * chart.n + 2.0 * np.tanh(u / 2.0))
    return val, dval / np.cosh(u / 2.0) ** 2


def _disjoint(p1, p2):
    """Diamonds n and n' touch at most at a tip when n != n'; the exterior
    meets diamond 0 only on its boundary.  Plane packets meet every support."""
    if p1.kind == p2.kind == "diamond":
        return p1.n != p2.n
    diamond = p1 if p1.kind == "diamond" else p2
    return {p1.kind, p2.kind} == {"diamond", "exterior"} and diamond.n == 0


@dataclass(frozen=True)
class KGProduct:
    value: complex
    est_error: float


def kg_product(m1, m2, tol=1e-8):
    """Klein-Gordon product <m1, m2> = -i Int dV (m1 dV m2* - m2* dV m1).

    Accepts Packet objects or sharp mode labels; sharp labels are wrapped in
    narrow Gaussian packets (DEFAULT_SIGMA), except that two sharp modes of
    the same family with overlapping support are rejected as distributional.
    Disjoint supports give an exact 0.  An exterior packet with an
    overlapping packet of another family is rejected before any quadrature:
    diamond-exterior overlaps are the rapidity integral of correlations.
    The quadrature runs over the envelope of the diamond packet, else p1.

    Two packets of one family with the same conj make an integrand that only
    beats at w_j - w'_k, so its first panels are sized for the largest such
    difference; conjugate pairs (p with p*) and plane with diamond keep the
    sum of the top frequencies.  When p2 is p1 or p1.conjugate() the packet
    is evaluated once and its values reused.  est_error is the doubling
    difference plus a rounding floor eps Sum|integrand w| (1 + max w max|u|)
    for the phases w u.
    """
    p1, sharp1 = _wrap_sharp(m1)
    p2, sharp2 = _wrap_sharp(m2)
    if sharp1 and sharp2 and p1.kind == p2.kind and not _disjoint(p1, p2):
        raise DomainError(
            "product of two sharp same-family modes is distributional; "
            "smear at least one into a wavepacket"
        )
    if _disjoint(p1, p2):
        return KGProduct(0.0 + 0.0j, 0.0)
    if "exterior" in (p1.kind, p2.kind) and p1.kind != p2.kind:
        raise DomainError(
            f"no KG product between {p1.kind} and {p2.kind} packets; "
            "diamond-exterior overlaps are in diamondfield.correlations"
        )

    owner = p2 if p1.kind != "diamond" and p2.kind == "diamond" else p1
    lo, hi = owner.envelope_interval()
    if p1.kind == p2.kind and p1.conj == p2.conj:
        freq = max(p1.max_freq() - np.min(p2.omegas), p2.max_freq() - np.min(p1.omegas))
    else:
        freq = p1.max_freq() + p2.max_freq()
    shared = p1.kind == p2.kind and p1.omegas is p2.omegas and p1.weights is p2.weights
    s = -1.0 if owner.kind == "exterior" else 1.0  # sign of dV/du on the chart
    last = []  # the integrand on the final nodes, for the rounding floor

    def integrand(u):
        f, df = _in_chart(p1, owner, u)
        if not shared:
            g, dg = _in_chart(p2, owner, u)
        elif p1.conj == p2.conj:
            g, dg = f, df
        else:
            g, dg = np.conj(f), np.conj(df)
        vals = -1j * s * (f * np.conj(dg) - np.conj(g) * df)
        last[:] = [vals]
        return vals

    val, err = integrate_adaptive(integrand, lo, hi, tol=tol, est_freq=freq)
    _, w = panel_nodes(lo, hi, last[0].size // 16)  # integrate_adaptive's 16-node panels
    reach = 1.0 + max(p1.max_freq(), p2.max_freq()) * max(abs(lo), abs(hi))
    floor = np.finfo(float).eps * float(np.sum(np.abs(last[0]) * w)) * reach
    return KGProduct(complex(val), float(err) + floor)
