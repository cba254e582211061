"""Correlations between modes of different diamonds in the chain.

The zeroth-diamond operators correlate with the nth-diamond ones through the
exterior mode: with the package Klein-Gordon conventions,

    <b0(G0) bn(G1)>  = conj( <P_n, E_minus> ),
    <b0(G0)+ bn(G1)> = conj( <P_n, E_plus> ),

where P_n carries weights G1(w') on diamond-n modes, E_minus is the exterior
mode weighted by conj(G0(w)) / (2 sinh pi Omega), and E_plus the conjugated
exterior mode weighted accordingly.  For adjacent diamonds (n = 1) there is
a closed form in Gamma functions; for large n the moments fall off as 1/n^2.

All sharp-mode formulas use Omega = omega/a and return values in units of
1/a; smeared moments are dimensionless.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_adaptive
from .errors import DomainError, PoleError
from .geometry import DiamondScale
from .modes import Packet, Profile, kg_product
from .specfun import log_gamma

_POLE_GUARD = 1e-12


def _adjacent_kernels(W, Wp):
    """(alpha / Gamma(-i(Wp - W)), beta) of alpha_beta_adjacent, elementwise
    over broadcast arrays of exterior (W) and first-diamond (Wp) frequencies."""
    c = np.sqrt(W / Wp) / (2.0 * math.pi)
    lg1 = log_gamma(1.0 + 1j * Wp)
    alpha_reg = c * 2.0 ** (-1j * (W - Wp)) * np.exp(lg1 - log_gamma(1.0 + 1j * W))
    beta = (
        -c
        * 2.0 ** (1j * (W + Wp))
        * np.exp(lg1 + log_gamma(-1j * (Wp + W)) - log_gamma(1.0 - 1j * W))
    )
    return alpha_reg, beta


def alpha_beta_adjacent(Omega, Omega_p, scale=DiamondScale()):
    """Sharp adjacent-diamond coefficients (alpha, beta) in closed form.

    Omega is the exterior-mode frequency, Omega_p the first-diamond one (both
    already divided by a).  alpha = <g1_{w'}, gex_w>, beta = <g1_{w'}, gex_w*>
    in the package KG convention; alpha has a simple pole at Omega = Omega_p.
    """
    if not (Omega > 0.0 and Omega_p > 0.0):
        raise DomainError("frequencies must be positive")
    if abs(Omega - Omega_p) < _POLE_GUARD:
        raise PoleError("alpha diverges at Omega = Omega_p; smear into packets")
    alpha_reg, beta = _adjacent_kernels(Omega, Omega_p)
    alpha = alpha_reg * np.exp(log_gamma(-1j * (Omega_p - Omega)))
    return complex(alpha) / scale.a, complex(beta) / scale.a


def alpha_beta_numeric(Omega, Omega_p, n=1, scale=DiamondScale(), tol=1e-10):
    """(alpha, beta, est_error) for diamond n >= 1 by regularized quadrature.

    The KG integral over the nth diamond is written in the diamond rapidity;
    for n = 1 the integrand does not decay toward the tip shared with the
    exterior boundary, where it approaches a pure oscillation whose Abel mean
    is added in closed form.
    """
    if n < 1:
        raise DomainError("alpha_beta_numeric requires diamond index n >= 1")
    if not (Omega > 0.0 and Omega_p > 0.0):
        raise DomainError("frequencies must be positive")
    if abs(Omega - Omega_p) < _POLE_GUARD:
        raise PoleError("alpha diverges at Omega = Omega_p; smear into packets")

    def parts(v):
        Vm2 = 4.0 * (n - 1) + 4.0 / (1.0 + np.exp(-v))  # V - 2
        Vp2 = 4.0 * n + 4.0 / (1.0 + np.exp(-v))  # V + 2
        L = np.log(Vp2) - np.log(Vm2)
        if n == 1:
            # sech^2(v/2)/(V^2-4) with the 1/(V-2) tip cancellation done exactly
            base = 1.0 / (1.0 + np.exp(v)) / Vp2
        else:
            base = np.cosh(v / 2.0) ** -2 / (Vm2 * Vp2)
        return base, L

    def f_alpha(v):
        base, L = parts(v)
        return base * np.exp(-1j * (Omega_p * v + Omega * L))

    def f_beta(v):
        base, L = parts(v)
        return -base * np.exp(-1j * (Omega_p * v - Omega * L))

    pref = (2.0 / math.pi) * math.sqrt(Omega / Omega_p)
    v_cut = 40.0  # rapidity cut of the quadrature
    va, ea = integrate_adaptive(f_alpha, -v_cut, v_cut, tol=tol, est_freq=Omega + Omega_p)
    vb, eb = integrate_adaptive(f_beta, -v_cut, v_cut, tol=tol, est_freq=Omega + Omega_p)
    # Abel means of the residual oscillations beyond the lower cut
    ta = f_alpha(np.array([-v_cut]))[0] / (1j * (Omega - Omega_p))
    tb = f_beta(np.array([-v_cut]))[0] / (-1j * (Omega + Omega_p))
    a = scale.a
    return (
        pref * (va + ta) / a,
        pref * (vb + tb) / a,
        pref * max(ea, eb) / a,
    )


# ---------------------------------------------------------------------------
# smeared cross moments

@dataclass(frozen=True)
class CrossMoments:
    """Vacuum second moments between two smeared diamond modes:
    m_minus = <b0 bn>, m_plus = <b0+ bn>."""

    m_minus: complex
    m_plus: complex
    est_error: float


def cross_moments(spec0, spec_n, n, scale=DiamondScale(), tol=1e-9):
    """Smeared <b0 bn> and <b0+ bn> for Gaussian packets spec = (omega0, sigma)
    or (omega0, sigma, v0), the nth packet living in diamond n >= 1."""
    if n < 1:
        raise DomainError("cross_moments requires diamond separation n >= 1")
    p0 = Profile(*spec0).natural(scale.a)
    p1 = Profile(*spec_n).natural(scale.a)
    o0, w0, G0 = p0.nodes()
    o1, w1, G1 = p1.nodes()

    Pn = Packet(kind="diamond", n=n, omegas=o1, weights=w1 * G1,
                center=p1.v0, sigma_env=p1.sigma)
    th = 2.0 * np.sinh(math.pi * o0)
    E_minus = Packet(kind="exterior", n=0, omegas=o0, weights=w0 * np.conj(G0) / th,
                     center=-p0.v0, sigma_env=p0.sigma)
    E_plus = E_minus.conjugate()

    rm = kg_product(Pn, E_minus, tol=tol)
    rp = kg_product(Pn, E_plus, tol=tol)
    return CrossMoments(
        m_minus=np.conj(rm.value),
        m_plus=np.conj(rp.value),
        est_error=rm.est_error + rp.est_error,
    )


def asymptotic_moment(n, Omega, Omega_p, scale=DiamondScale()):
    """Large-separation moments (m_minus, m_plus): a 1/(4 n^2) falloff.

    Certified for n >= 10; between 5 and 10 a warning is issued; below 5 the
    expansion is unreliable and a DomainError is raised.
    """
    if n < 5:
        raise DomainError("asymptotic moments need diamond separation n >= 5")
    if n < 10:
        warnings.warn("asymptotic moments are rough for n < 10", stacklevel=2)
    m = (
        math.sqrt(Omega * Omega_p)
        / (4.0 * n * n * math.sinh(math.pi * Omega) * math.sinh(math.pi * Omega_p))
    )
    return m, -m


def smeared_asymptotic_moment(spec0, spec_n, n, scale=DiamondScale()):
    """asymptotic_moment at the packet centers times the profile integrals
    (Int dw G0)(Int dw G1), directly comparable with cross_moments.

    Only packets centered at v0 = 0 are covered: the center phases e^{-i w v0}
    are not part of the asymptotic form.
    """
    p0 = Profile(*spec0).natural(scale.a)
    p1 = Profile(*spec_n).natural(scale.a)
    if p0.v0 or p1.v0:
        raise DomainError("smeared asymptotic moments need packets centered at v0 = 0")
    _, w0, G0 = p0.nodes()
    _, w1, G1 = p1.nodes()
    norm = float(np.sum(w0 * G0).real) * float(np.sum(w1 * G1).real)
    mm, mp = asymptotic_moment(n, p0.omega0, p1.omega0)
    return mm * norm, mp * norm


def _gamma_minus_pole(z):
    """Gamma(z) - 1/z, entire near z = 0 (value -EulerGamma at 0)."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-3
    zs = np.where(small, 1.0, z)
    out = np.exp(log_gamma(zs)) - 1.0 / zs
    if np.any(small):
        # Taylor of Gamma(z) - 1/z around 0
        g = 0.5772156649015329
        z2 = np.where(small, z, 0.0)
        series = -g + (g * g / 2.0 + math.pi**2 / 12.0) * z2
        out = np.where(small, series, out)
    return out


def adjacent_moments_analytic(spec0, spec1, scale=DiamondScale()):
    """<b0 b1> and <b0+ b1> from the adjacent-diamond closed forms.

    The alpha pole on the frequency diagonal is split off exactly:
    Gamma(i(W'-W)) = [entire part] + 1/(i(W'-W)), and the simple-pole piece
    is integrated as the boundary value from Im W' < 0, i.e. principal value
    plus pi times the residue line.  Cross-validated against the pole-free
    KG-quadrature route, which fixes that choice of side.
    """
    p0 = Profile(*spec0).natural(scale.a)
    p1 = Profile(*spec1).natural(scale.a)
    mm, mp = _adjacent_moments_eval(p0, p1, 128)
    mm2, mp2 = _adjacent_moments_eval(p0, p1, 96)
    return CrossMoments(m_minus=mm, m_plus=mp,
                        est_error=max(abs(mm - mm2), abs(mp - mp2)))


def _adjacent_moments_eval(p0, p1, n_nodes):
    # deliberately different node counts so the two grids never coincide
    o0, w0, G0 = p0.nodes(n_nodes)
    o1, w1, G1 = p1.nodes(n_nodes + 17)
    th = 2.0 * np.sinh(math.pi * o0)

    Om = o0[:, None]
    Omp = o1[None, :]
    alpha_reg, beta = _adjacent_kernels(Om, Omp)
    P = np.conj(alpha_reg)  # alpha-bar / Gamma(i(W' - W)), regular on W = W'
    wa0 = w0 * np.conj(G0) / th
    wa1 = w1 * np.conj(G1)

    # entire part: plain tensor quadrature
    mm = complex(np.sum(wa0[:, None] * wa1[None, :] * P * _gamma_minus_pole(1j * (Omp - Om))))

    # pole part: Int dW' q(W, W') / (i(W' - W)) with q(W, W') = conj(G1(W')) P(W, W'),
    # as PV by smooth subtraction of q(W) = q(W, W) = conj(G1(W)) / 2 pi plus pi q(W);
    # W nodes outside the o1 range have no pole (q = 0, no log term)
    lo, hi = o1[0], o1[-1]
    inside = (lo < o0) & (o0 < hi)
    q = np.where(inside, np.conj(p1.amplitude(o0)) * (1.0 / (2.0 * math.pi)), 0.0)
    log_ends = np.zeros(o0.shape)
    log_ends[inside] = np.log((hi - o0[inside]) / (o0[inside] - lo))
    Q = np.conj(G1)[None, :] * P
    pv = np.sum(w1 * (Q - q[:, None]) / (Omp - Om), axis=1) + q * log_ends
    for term in wa0 * (-1j * pv + math.pi * q):
        mm += term  # node order, as a scalar running sum

    mp = complex(np.sum((w0 * G0 / th)[:, None] * wa1[None, :] * np.conj(beta)))
    return mm, mp
