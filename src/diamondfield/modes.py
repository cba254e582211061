"""(1+1)-D left-moving mode functions and the Klein-Gordon product engine.

Three mode families on the Minkowski null line V = t + x (units of a = 1):

* plane waves            u_k(V)     = exp(-i k V) / sqrt(4 pi k)
* diamond modes          g_n,w(V)   = ((1+s/2)/(1-s/2))^(-i w), s = V - 4n,
                                      supported on |V - 4n| < 2
* the exterior mode      g_ex,w(V)  = ((V/2+1)/(V/2-1))^(+i w) on |V| > 2

all divided by sqrt(4 pi w).  Each family is a plane wave in its own null
rapidity: v = 2 artanh((V-4n)/2) for diamond n (phase e^{-i w v}) and
L = ln((V+2)/(V-2)) for the exterior (phase e^{+i w L}).

Sharp single-frequency modes are distributions, so every mode input is a
Gaussian wavepacket (Packet, default bandwidth DEFAULT_SIGMA).  The KG product

    <f, g> = -i Int dV (f dV(g*) - g* dV(f))

of two packets of one family is -i s Int du (f du(g*) - g* du(f)) in their
rapidity u, s the sign of dV/du: a double sum of pure phases, integrated exactly.
A diamond packet P meets another family Q in the one term -2i Int dv P dv Q*(V(v))
left by parts: _rapidity_integral, with both packets summed inside, serves
plane waves (kg_product) and the exterior mode (diamondfield.correlations)
on nested trapezoid grids in v.  Neither side
forms a phase per node and frequency: on a uniform grid P factors into a
table of block starts times a table of in-block offsets, and Q(V(v)) is a
short Taylor series in its own rapidity about the points of one lattice.
The sharp references (bogoliubov.ab_numeric, correlations.alpha_beta_numeric)
integrate their one-frequency integrand on Gauss-Legendre panels instead
(_sharp_rapidity_integral), which keeps them independent of that route.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._quad import gauss_legendre, integrate_adaptive, integrate_trapezoid
from .errors import DomainError

DEFAULT_SIGMA = 0.02  # the one default packet bandwidth of the package and its CLI

_TAIL = 5.5  # packet envelopes are truncated at exp(-_TAIL^2) ~ 7e-14
_CUT = 8.0  # nodes in omega span omega0 +- _CUT sigma, where |G|^2 < e^{-32} of its peak
_SPAN = 12.0  # nodes in sqrt(omega) span omega0 +- _SPAN sigma, where G < e^{-36} of its peak
_ROWS = 4096  # rows per phase matrix block of Packet.eval_natural, whose point count has no bound
_V_CUT = 40.0  # rapidity cut of cross-family overlaps: sech^2(v/2) ~ 1e-17 beyond it
_RAPIDITY_TOL = 1e-10  # absolute refinement tolerance of the rapidity integrals
_TAYLOR_TOL = np.finfo(float).eps  # Taylor remainder of _taylor_sum, relative to sum|c|
_SCALE = 1e150  # bound of the Profile domain (Profile.checked): sigma^2 stays a normal double
_NARROW = 1e8  # largest omega0/sigma of Profile.checked: offsets on the nodes in omega lose ~eps omega0/sigma


def _phase(x):
    """e^{-ix} for real x, bit for bit np.exp(-1j * x), written as cos and
    sin into one complex array without forming -1j * x."""
    out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _is_index(n):
    """True for an integer other than a bool (a bool is a numbers.Integral)."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _check_index(n, least=None, what="diamond index"):
    """DomainError unless n is an integer (_is_index), and >= least when least is given."""
    if not (_is_index(n) and (least is None or n >= least)):
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"the {what} n must be an integer{bound}, not {n!r}")


# ---------------------------------------------------------------------------
# wavepackets

class Profile(NamedTuple):
    """Gaussian frequency profile of a wavepacket,

        G(w) = (2 pi sigma^2)^(-1/4) exp(-(w - omega0)^2 / 4 sigma^2) e^{-i w v0},

    normalized so that Int dw |G|^2 = 1.  v0 shifts the packet in its
    natural null coordinate u: a mode family with phase e^{-i sign w u}
    peaks at u = -sign v0 (Packet.envelope_interval), so diamond and plane
    packets peak at -v0 and exterior packets at +v0.  Every smeared quantity
    in the package is an integral over such a profile on the nodes(n) grid.
    """

    omega0: float
    sigma: float
    v0: float = 0.0

    def amplitude(self, om):
        """G at the frequencies om (scalar or array)."""
        return self._at(om - self.omega0, om)

    def _at(self, d, om):
        """G at the frequencies om from their offsets d = om - omega0, formed
        exactly where the nodes are; the phase e^{-i om v0} takes om.  A
        centred profile (v0 = +-0) skips the phase, which is then exactly 1,
        and returns the envelope plus 0j, the same bits as the product."""
        g = (2.0 * math.pi * self.sigma**2) ** (-0.25) * np.exp(-(d**2) / (4.0 * self.sigma**2))
        return g * np.exp(-1j * om * self.v0) if self.v0 else g + 0j

    def checked(self):
        """The profile itself; DomainError outside the domain 0 < omega0,
        1/_SCALE <= sigma and omega0, sigma, |v0| <= _SCALE, omega0/sigma <=
        _NARROW.  There sigma^2 is a normal double and (w - omega0)^2, w v0
        and (w - omega0)^2 / 4 sigma^2 stay finite for every node w, and on
        the nodes in omega (planck_occupation, thermal_occupation and
        gaussian._same_diamond_occupation) the rounding of each node omega0 +
        x sigma, about eps omega0/sigma relative in x, stays near 2e-8."""
        if not (0.0 < self.omega0 <= _SCALE and 1.0 / _SCALE <= self.sigma <= _SCALE
                and abs(self.v0) <= _SCALE and self.omega0 <= _NARROW * self.sigma):
            raise DomainError(f"packet needs 0 < omega0, 1/{_SCALE:g} <= sigma, omega0, sigma and "
                              f"|v0| <= {_SCALE:g}, and omega0/sigma <= {_NARROW:g}")
        return self

    def nodes(self, n=None, root=False):
        """(om, wt, G): n (by default _node_count(self)) Gauss-Legendre nodes over
        omega0 +- _CUT sigma, their weights and the profile on them, for
        integrands quadratic in G.  With root the nodes are Gauss-Legendre in
        sqrt(omega) over omega0 +- _SPAN sigma, from omega = 0 up where that
        range reaches it, so that an omega^{-1/2} endpoint there becomes smooth
        and integrands linear in G are cut where G is below the double
        resolution of its peak; G takes the offsets u^2 - omega0 from the
        abscissae, so rounding shifts the packet as a whole."""
        self.checked()
        x, w = gauss_legendre(n or _node_count(self))
        if root:
            # the range and the centre in sqrt(omega)
            lo, hi, r = (math.sqrt(max(self.omega0 + e * self.sigma, 0.0)) for e in (-_SPAN, _SPAN, 0.0))
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            u = mid + half * x
            # u^2 - omega0 = (u - r)(u + r), with u - r formed without the rounding of u
            return u * u, (hi - lo) * w * u, self._at(((mid - r) + half * x) * (u + r), u * u)
        lo = max(self.omega0 - _CUT * self.sigma, 1e-12)
        hi = self.omega0 + _CUT * self.sigma
        om = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        wt = 0.5 * (hi - lo) * w
        return om, wt, self.amplitude(om)


def _node_count(*profiles):
    """Gauss-Legendre nodes per profile that resolve every phase e^{-i w v0}."""
    return 96 + math.ceil(12.8 * max(p.sigma * abs(p.v0) for p in profiles))


@dataclass(frozen=True)
class Packet:
    """The Gaussian wavepacket Profile(omega0, sigma, v0) of mode family kind
    ('diamond', 'exterior' or 'plane') in the diamond of integer index n,
    conjugated when conj: the sum_j weights[j] * (mode at omegas[j]) on
    Profile.nodes(root=True), the rule for integrands linear in G, which
    cuts G at omega0 +- _SPAN sigma where it is below the double resolution
    of its peak.  The nodes are built on first use and are not fields:
    packets compare by their parameters."""

    n: int
    omega0: float
    sigma: float = DEFAULT_SIGMA
    v0: float = 0.0
    kind: str = "diamond"
    conj: bool = False

    def __post_init__(self):
        if self.kind not in ("diamond", "exterior", "plane"):
            raise DomainError("kind must be 'diamond', 'exterior' or 'plane'")
        _check_index(self.n)
        self.profile.checked()

    @property
    def profile(self) -> Profile:
        return Profile(self.omega0, self.sigma, self.v0)

    @cached_property
    def _terms(self):
        # 96 + 12.8 sigma |v0| nodes, as cross_moments takes on this rule: against 4x as many
        # (at most 2,048) eval_natural on the envelope moves by at most 6.3e-14 (sigma 0.3, v0 300)
        om, wt, G = self.profile.nodes(root=True)
        return om, wt * G

    omegas = property(lambda self: self._terms[0])
    weights = property(lambda self: self._terms[1])

    @property
    def sign(self) -> int:
        # natural-coordinate phase is exp(-i * sign * omega * u)
        return -1 if self.kind == "exterior" else +1

    def conjugate(self) -> "Packet":
        return replace(self, conj=not self.conj)

    def envelope_interval(self):
        c, half = -self.sign * self.v0, _TAIL / self.sigma  # G e^{-i sign w u} peaks at c
        return c - half, c + half

    def eval_natural(self, u):
        """(value, d value/du) at the packet's own natural coordinate."""
        u = np.asarray(u, dtype=float)
        amp = self.weights / np.sqrt(4.0 * math.pi * self.omegas)
        damp = (-1j * self.sign) * self.omegas * amp
        parts, flat, om = [], u.ravel(), self.sign * self.omegas
        for i in range(0, flat.size, _ROWS):  # bounds the phase matrix's memory
            phase = _phase(np.multiply.outer(flat[i:i + _ROWS], om))
            parts.append((phase @ amp, phase @ damp))
        val, dval = (np.concatenate(x).reshape(u.shape) for x in zip(*parts))
        if self.conj:
            return np.conj(val), np.conj(dval)
        return val, dval


# ---------------------------------------------------------------------------
# quadrature of products

def _plane_kernel(n, v):
    """(base, L) = (dV/dv, -V) of the diamond-n / plane overlap, V = 4n + 2 tanh(v/2).
    |dL/dv| = sech^2(v/2) reaches its bound 1 at v = 0."""
    return np.cosh(v / 2.0) ** -2, -(4.0 * n + 2.0 * np.tanh(v / 2.0))


def _grid_sum(om, c, start, step, count):
    """sum_j c[j] e^{-i om[j] v} on the count nodes v = start + step k of a
    uniform grid.  With B = ceil(sqrt(count)) and k = B q + r the phase
    factors as e^{-i w (start + step B q)} e^{-i w step r}, a table of block
    starts times a table of in-block offsets, about sqrt(count) rows each,
    summed by one (rows x m) by (m x B) product: 2 sqrt(count) m phases, not
    count m.  Splitting w v rounds within the floor eps (1 + max w max|v|)."""
    B = math.isqrt(count - 1) + 1
    starts = start + (step * B) * np.arange(-(-count // B))
    P = (_phase(np.multiply.outer(starts, om)) * c) @ _phase(np.multiply.outer(om, step * np.arange(B)))
    return P.ravel()[:count]


def _taylor_sum(om, c, L):
    """(X, bound): X = sum_k c[k] e^{-i om[k] L} at the points L, with
    |X - exact| <= bound.  L need not be linear in the quadrature variable,
    so the phase does not factor as in _grid_sum; instead X is its Taylor
    series in d = L - L0 about the nearest point L0 = j delta of one lattice
    of spacing delta = 1/max|w|,

        X = sum_{q < Q} M[j, q] d^q,  M[j, q] = sum_k c_k e^{-i w_k j delta} (-i w_k)^q / q!,

    one phase row per lattice point in use (1 to 4 where L moves slowly,
    |L| max|w| rows where it does not) and one (rows x m) by (m x Q) product,
    then Horner on the points, one column of M per step.  Q is the least
    order with x^Q / Q! <= _TAYLOR_TOL for x = max|w| max|d| <= 1/2, and
    bound = sum|c| x^Q / Q! is the Lagrange remainder."""
    top = float(np.max(np.abs(om)))
    j = np.rint(L * top)
    j0 = float(np.min(j))
    d = L - j / top
    x = top * float(np.max(np.abs(d)))
    Q, rem = 1, x
    while rem > _TAYLOR_TOL:
        Q += 1
        rem *= x / Q
    steps = np.multiply.outer(-1j * om, 1.0 / np.arange(1, Q))  # (-i w) / q
    M = (_phase(np.multiply.outer(np.arange(j0, np.max(j) + 1.0) / top, om)) @ np.cumprod(
        np.hstack([c[:, None], steps]), axis=1)).T.copy()
    row = (j - j0).astype(np.intp)
    X = M[Q - 1][row]
    for q in range(Q - 2, -1, -1):
        X *= d
        X += M[q][row]
    return X, float(np.sum(np.abs(c))) * rem


def _rapidity_integral(kernel, om_p, c_p, om_x, c_x, lo, hi, rate):
    """(I, J, est_error): I = Int dv base P X and J = -Int dv base P conj(X)
    over the diamond rapidity v in [lo, hi], with (base, L) = kernel(v),
    P = sum_j c_p[j] e^{-i om_p[j] v} and X = sum_k c_x[k] e^{-i om_x[k] L}:
    up to a constant, the KG products of a diamond packet with a plane
    (_plane_kernel) or exterior (correlations._kernel) packet Q and with Q*.
    rate bounds |dL/dv| on [lo, hi], so the phases of P X turn at most at
    f = max om_p + rate max om_x: 1 for the plane kernel and the first
    diamond, far less for the exterior seen from diamond n >= 2
    (correlations._overlap).
    The integrand is analytic in a strip about the real line and has decayed
    at both ends, so it takes nested trapezoid sums (integrate_trapezoid)
    from the step min(1/2, pi / 4f): the first integrand call covers that
    grid and its midpoints, the first two levels, and for the packets of
    the CLI at n >= 2 their comparison ends it.  P factors over the uniform
    grid of each call (_grid_sum).  L is not linear in v, so X is a short
    Taylor series in L about the points of one lattice in L (_taylor_sum).  est_error adds to
    the halving difference (to _RAPIDITY_TOL) the Taylor remainder
    integrated against |base P| and the rounding floor of the phases w v and
    w L, taken on the scale sum|c| of each sum's terms: a packet read far
    from its centre cancels in its sum.
    """
    eps, size_p, size_x = np.finfo(float).eps, float(np.sum(np.abs(c_p))), float(np.sum(np.abs(c_x)))
    top_p, top_x = float(np.max(om_p)), float(np.max(om_x))

    def f(v, start, step):
        base, L = kernel(v)
        P = base * _grid_sum(om_p, c_p, start, step, v.size)
        X, bound = _taylor_sum(om_x, c_x, L)
        phase = 1.0 + top_p * max(abs(lo), abs(hi)) + top_x * float(np.max(np.abs(L)))
        aP = np.abs(P)
        slack = eps * phase * (np.abs(base) * np.abs(X) * size_p + aP * size_x) + bound * aP
        return np.stack([P * X, -P * np.conj(X)]), slack

    val, err = integrate_trapezoid(f, lo, hi, _RAPIDITY_TOL, min(0.5, math.pi / (4.0 * (top_p + rate * top_x))))
    return val[0], val[1], err


def _sharp_rapidity_integral(kernel, w_p, w_x, lo, hi, rate):
    """(I, J, est_error) of _rapidity_integral for one frequency per side and
    unit coefficients, P = base e^{-i w_p v} and X = e^{-i w_x L}, with one
    np.exp per node on Gauss-Legendre panels (integrate_adaptive): the sharp
    references stay independent of the trapezoid grid and the phase tables.
    Each node's error bound is the rounding of its phases,
    2 eps (1 + w_p max|v| + w_x max|L|) |base|; L is monotone in v, so
    max|L| is at an end."""
    _, L = kernel(np.array([lo, hi]))
    phase = 1.0 + w_p * max(abs(lo), abs(hi)) + w_x * float(np.max(np.abs(L)))

    def f(v, *grid):
        base, L = kernel(v)
        P = base * np.exp(-1j * w_p * v)
        X = np.exp(-1j * w_x * L)
        return np.stack([P * X, -P * np.conj(X)]), 2.0 * np.finfo(float).eps * phase * np.abs(base)

    (I, J), err = integrate_adaptive(f, lo, hi, _RAPIDITY_TOL, est_freq=w_p + rate * w_x)
    return I, J, err


def _phase_terms(p):
    """(a, s) with p = sum_j a[j] e^{-i s[j] u} in its natural coordinate u."""
    a, s = p.weights / np.sqrt(4.0 * math.pi * p.omegas), p.sign * p.omegas
    return (np.conj(a), -s) if p.conj else (a, s)


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


def kg_product(p1, p2):
    """Klein-Gordon product <p1, p2> = -i Int dV (p1 dV p2* - p2* dV p1) of
    two Packets; anything else is a TypeError.  Disjoint supports give an
    exact 0.  An exterior packet with an overlapping packet of another family
    is rejected before any quadrature: diamond-exterior overlaps are the
    rapidity integral of correlations.

    A plane and a diamond packet meet in _rapidity_integral over |v| <= 40.
    Two packets of one family, f = sum_j a_j e^{-i s_j u} and
    g = sum_k b_k e^{-i t_k u} in their rapidity u (_phase_terms), give the
    exact double sum over p1's envelope [lo, hi], with d = s_j - t_k,

        <f, g> = S sum_jk a_j conj(b_k) (s_j + t_k) (hi - lo) e^{-i d c} sinc(d (hi - lo) / 2 pi),

    c the midpoint and S the sign of dV/du.  e^{-i d c} = e^{-i s_j c} e^{+i t_k c}
    splits into a phase per row and per column, so no phase is formed per
    term.  est_error is the rounding eps sum|terms| (1 + (max|s| + max|t|)
    max(|lo|, |hi|)) of the phases s_j c and t_k c and the sinc arguments d u.
    """
    if not (isinstance(p1, Packet) and isinstance(p2, Packet)):
        raise TypeError(f"kg_product takes two Packets, not {p1!r} and {p2!r}")
    if _disjoint(p1, p2):
        return KGProduct(0.0 + 0.0j, 0.0)
    if "exterior" in (p1.kind, p2.kind) and p1.kind != p2.kind:
        raise DomainError(
            f"no KG product between {p1.kind} and {p2.kind} packets; "
            "diamond-exterior overlaps are in diamondfield.correlations"
        )
    if p1.kind != p2.kind:
        # with D = sum a_j g_{n,w_j} and Q = sum b_k u_{k_k} unconjugated, <D, Q> and
        # <D, Q*> are I / 2pi and J / 2pi; <f*, g*> = -conj<f, g>, <g, f> = conj<f, g>
        d, q = (p1, p2) if p1.kind == "diamond" else (p2, p1)
        I, J, err = _rapidity_integral(
            lambda v: _plane_kernel(d.n, v), d.omegas, d.weights / np.sqrt(d.omegas),
            q.omegas, np.conj(q.weights) * np.sqrt(q.omegas), -_V_CUT, _V_CUT, 1.0)
        val = (J if d.conj != q.conj else I) / (2.0 * math.pi)
        val = -np.conj(val) if d.conj else val
        return KGProduct(complex(np.conj(val) if p1 is q else val), err / (2.0 * math.pi))

    lo, hi = p1.envelope_interval()
    s = -1.0 if p1.kind == "exterior" else 1.0  # sign of dV/du on the chart
    (a, sa), (b, tb) = _phase_terms(p1), _phase_terms(p2)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    a, b = a * _phase(sa * mid), b * _phase(tb * mid)  # e^{-i d mid}, split by row and column
    # (s_j + t_k) Int_lo^hi e^{-i delta u} du without its phase e^{-i delta mid}; a
    # packet has at most _quad._MAX_ORDER = 2048 nodes, so R is at most 2048 x 2048
    R = np.add.outer(sa, tb) * (2.0 * half * np.sinc(np.subtract.outer(sa, tb) * (half / math.pi)))
    val = a @ (R @ np.conj(b))
    size = float(np.abs(a) @ np.abs(R) @ np.abs(b))
    top = float(np.max(np.abs(sa)) + np.max(np.abs(tb)))
    err = np.finfo(float).eps * size * (1.0 + top * max(abs(lo), abs(hi)))
    return KGProduct(complex(s * val), err)
