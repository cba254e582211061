"""Bogoliubov coefficients between diamond modes and Minkowski plane waves.

Closed forms (units of a = 1, Omega = omega/a, kappa = k/a):

    A(0) =  2 sqrt(Om ka)/sinh(pi Om) e^{+2 i ka} M(1+i Om, 2, -4 i ka)
    B(0) = +2 sqrt(Om ka)/sinh(pi Om) e^{-2 i ka} M(1+i Om, 2, +4 i ka)
    A(n) = e^{+4 i n ka} A(0),   B(n) = e^{-4 i n ka} B(0)

normalized so that the delta-orthonormal diamond mode expands as
g = Int dk (A u_k + B u_k*) with delta-orthonormal plane waves, i.e.
A = <g, u_k> and B = -<g, u_k*> under the Klein-Gordon product; the signs
and scale are verified by numerically reconstructing g from the expansion.
With this normalization the smeared completeness sum Int dka (|A|^2 - |B|^2)
equals 1 and the smeared occupation Int dka |B|^2 reproduces the Planck
factor 1/(e^{2 pi Om} - 1).

The occupation and completeness integrals have a peculiar structure: the
integrand's mass is distributed log-uniformly in kappa under a Gaussian
envelope in ln(kappa) of width 1/(2 sigma), so for narrow packets a large
fraction of the integral lives at astronomically large kappa.  Direct
quadrature handles kappa <= kappa_split; beyond that the two slowly-varying
sector amplitudes of the Kummer asymptotics are integrated in ln(kappa),
with the rapidly oscillating cross term bounded into est_error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_adaptive, panel_nodes
from .errors import DomainError
from .geometry import DiamondScale
from .modes import Profile
from .specfun import (
    _ASYM_TRY,
    _kummer_asymptotic,
    _kummer_taylor,
    _taylor_ok,
    kummer_asymptotic_sectors,
    kummer_m_vec,
)


def _prefactor(Omega, kappa):
    # 2 sqrt(Om ka)/sinh(pi Om), overflow-safe in Omega
    return (
        np.sqrt(Omega * kappa)
        * 4.0
        * math.exp(-math.pi * Omega)
        / (-math.expm1(-2.0 * math.pi * Omega))
    )


def ab_coefficients(omega, k, n=0, scale=DiamondScale()):
    """(A, B) for diamond index n, vectorized over k at fixed omega."""
    a = scale.a
    Om = omega / a
    ka = np.asarray(k, dtype=float) / a
    if not Om > 0.0:
        raise DomainError("omega must be positive")
    if np.any(ka <= 0.0):
        raise DomainError("k must be positive")
    pref = _prefactor(Om, ka)
    A = pref * np.exp(2j * ka) * kummer_m_vec(1.0 + 1j * Om, 2.0, -4j * ka)
    B = pref * np.exp(-2j * ka) * kummer_m_vec(1.0 + 1j * Om, 2.0, 4j * ka)
    if n:
        A = np.exp(4j * n * ka) * A
        B = np.exp(-4j * n * ka) * B
    return A / a, B / a


def ab_numeric(omega, k, n=0, scale=DiamondScale(), tol=1e-10):
    """(A, B) by regularized Klein-Gordon quadrature (independent oracle).

    A = <g_{n,omega}, u_k> reduced to the single absolutely convergent term
    -2i Int dV g dV(u_k*); the discarded boundary term has Abel mean zero.
    """
    a = scale.a
    Om = omega / a
    ka = float(k) / a
    if not (Om > 0.0 and ka > 0.0):
        raise DomainError("omega and k must be positive")

    def f_A(v):
        V = 4.0 * n + 2.0 * np.tanh(v / 2.0)
        return np.cosh(v / 2.0) ** -2 * np.exp(1j * (ka * V - Om * v))

    def f_B(v):
        V = 4.0 * n + 2.0 * np.tanh(v / 2.0)
        return np.cosh(v / 2.0) ** -2 * np.exp(-1j * (ka * V + Om * v))

    # sech^2 cuts the integrand below 1e-16 by |v| = 40
    vA, eA = integrate_adaptive(f_A, -40.0, 40.0, tol=tol, est_freq=Om + ka)
    vB, eB = integrate_adaptive(f_B, -40.0, 40.0, tol=tol, est_freq=Om + ka)
    c = math.sqrt(ka / Om) / (2.0 * math.pi)
    return (c * vA / a, c * vB / a, c * max(eA, eB) / a)


# ---------------------------------------------------------------------------
# smeared spectra

# Euler-integral band route: trapezoid rule in s on |s| <= _EULER_S with step
# _EULER_H, certified per kappa lane against _EULER_TOL relative, evaluated
# _EULER_CHUNK lanes at a time
_EULER_H = 0.025
_EULER_S = 20.0
_EULER_TOL = 1e-10
_EULER_CHUNK = 32


def _kummer_double(a, b, z):
    """kummer_m_vec without its mpmath fallback: NaN on band lanes and on
    asymptotic lanes whose series did not bottom out."""
    r = np.abs(z)
    out = np.full(z.shape, np.nan, dtype=complex)
    small = _taylor_ok(a, r)
    large = ~small & (r >= _ASYM_TRY)
    if np.any(small):
        out[small] = _kummer_taylor(a, b, z[small])
    if np.any(large):
        val, ok = _kummer_asymptotic(a, b, z[large])
        out[large] = np.where(ok, val, np.nan)
    return out


def _per_node_sum(om, coeff, kappa, kummer):
    """A_G, B_G as the sum over frequency nodes of the closed forms, with M
    from kummer(a, b, z)."""
    A = np.zeros(kappa.shape, dtype=complex)
    B = np.zeros(kappa.shape, dtype=complex)
    for Om, c in zip(om, coeff):
        pref = c * _prefactor(Om, kappa)
        A += pref * np.exp(2j * kappa) * kummer(1.0 + 1j * Om, 2.0, -4j * kappa)
        B += pref * np.exp(-2j * kappa) * kummer(1.0 + 1j * Om, 2.0, 4j * kappa)
    return A, B


def _smeared_ab_euler(om, coeff, kappa):
    """A_G, B_G from the Euler integral (DLMF 13.4.1) with the packet summed
    inside, and a per-lane certificate.

    With t = (1 + tanh s)/2, pref M(1 + i Om, 2, -+4 i ka) e^{+-2 i ka} =
    sqrt(ka) Int ds e^{-+2 i ka tanh s} (2/(pi sqrt(Om))) e^{2 i Om s}/(2 cosh^2 s),
    so A_G, B_G = sqrt(ka) Int ds e^{-+2 i ka tanh s} K(s) with the packet kernel
    K(s) = sum_j c_j (2/(pi sqrt(Om_j))) e^{2 i Om_j s}/(2 cosh^2 s).  The
    integrand is analytic in a strip, so the trapezoid rule converges
    exponentially; |T_h - T_2h| plus the rounding scale of the sum must stay
    below _EULER_TOL |T_h| on both A and B for a lane to be ok.
    """
    n = round(_EULER_S / _EULER_H)
    s = _EULER_H * np.arange(-n, n + 1)  # node spacing exactly the weight h
    K = np.zeros(s.shape, dtype=complex)
    for Om, c in zip(om, coeff):
        K += (c * 2.0 / (math.pi * math.sqrt(Om))) * np.exp(2j * Om * s)
    K *= 0.5 / np.cosh(s) ** 2
    # trapezoid weights for A and conj(B): step h, then step 2h on every second node
    W = _EULER_H * np.stack([K, K.conj()], axis=1)
    W2 = 2.0 * W
    W2[1::2] = 0.0
    W = np.concatenate([W, W2], axis=1)
    rounding = 1e-15 * _EULER_H * float(np.sum(np.abs(K)))
    th = np.tanh(s)
    A = np.empty(kappa.shape, dtype=complex)
    B = np.empty(kappa.shape, dtype=complex)
    ok = np.empty(kappa.shape, dtype=bool)
    for lo in range(0, kappa.size, _EULER_CHUNK):
        sl = slice(lo, lo + _EULER_CHUNK)
        P = np.outer(kappa[sl], -2j * th)
        np.exp(P, out=P)
        T = P @ W
        T_h = T[:, :2]
        err = np.abs(T_h - T[:, 2:]) + rounding
        ok[sl] = np.all(err <= _EULER_TOL * np.abs(T_h), axis=1)
        root = np.sqrt(kappa[sl])
        A[sl] = root * T_h[:, 0]
        B[sl] = root * T_h[:, 1].conj()
    return A, B, ok


def smeared_ab(om, coeff, kappa):
    """A_G, B_G at the kappa grid for a packet with frequency nodes om and
    combined weights coeff (quadrature weight times profile).

    Columns where every node's M is a Taylor or certified asymptotic lane
    are summed per node; the rest go through the Euler integral, and lanes
    it cannot certify fall back to the per-node kummer_m_vec sum.
    """
    kappa = np.asarray(kappa, dtype=float)
    A, B = _per_node_sum(om, coeff, kappa, _kummer_double)
    hard = np.flatnonzero(np.isnan(A) | np.isnan(B))
    if hard.size:
        A[hard], B[hard], ok = _smeared_ab_euler(om, coeff, kappa[hard])
        bad = hard[~ok]
        if bad.size:
            A[bad], B[bad] = _per_node_sum(om, coeff, kappa[bad], kummer_m_vec)
    return A, B


def _sector_amplitudes(om, coeff, kappa):
    """Slow sector amplitudes at large kappa:
    A_G = e^{+2 i ka} QA1 + e^{-2 i ka} QA2,  B_G = e^{-2 i ka} QB1 + e^{+2 i ka} QB2.
    """
    kappa = np.asarray(kappa, dtype=float)
    QA1 = np.zeros(kappa.shape, dtype=complex)
    QA2 = np.zeros_like(QA1)
    QB1 = np.zeros_like(QA1)
    QB2 = np.zeros_like(QA1)
    for Om, c in zip(om, coeff):
        a_par = 1.0 + 1j * Om
        pref = c * _prefactor(Om, kappa)
        t1, t2, ok = kummer_asymptotic_sectors(a_par, 2.0, -4j * kappa)
        if not ok.all():
            raise DomainError("sector series not certified; raise kappa_split")
        QA1 += pref * t1
        QA2 += pref * t2
        t1, t2, ok = kummer_asymptotic_sectors(a_par, 2.0, 4j * kappa)
        if not ok.all():
            raise DomainError("sector series not certified; raise kappa_split")
        QB1 += pref * t1
        QB2 += pref * t2
    return QA1, QA2, QB1, QB2


# largest ln(kappa) whose Kummer argument 4 kappa is a finite double
_L_MAX = math.log(np.finfo(float).max / 4.0)


@dataclass(frozen=True)
class SpectrumResult:
    value: float
    est_error: float
    finite_part: float
    tail_part: float


def _smeared_integral(profile, which, kappa_split, tol):
    """Int dka of |B_G|^2 ('occupation') or |A_G|^2 - |B_G|^2 ('completeness')
    for a Profile in units of a = 1."""
    om, wt, G = profile.nodes()
    if kappa_split < 30.0:
        raise DomainError("kappa_split below the certified sector regime")
    # tail in L = ln(kappa) up to where the envelope is below 1e-21 of its peak
    L_lo = math.log(kappa_split)
    L_hi = L_lo + 2.0 + 7.0 / profile.sigma
    if L_hi > _L_MAX:
        raise DomainError(
            f"sigma = {profile.sigma:g} (in units of a) is too narrow: the log-kappa "
            f"tail would reach kappa = e^{L_hi:.0f}, beyond double precision"
        )
    coeff = wt * G

    def f(kappa):
        A, B = smeared_ab(om, coeff, kappa)
        if which == "occupation":
            return np.abs(B) ** 2
        return np.abs(A) ** 2 - np.abs(B) ** 2

    # |A_G|^2, |B_G|^2 carry e^{+-4 i kappa} beat terms
    finite, err_f = integrate_adaptive(f, 1e-9, kappa_split, tol=tol, est_freq=4.0)

    # tail: smooth sector moduli under the log-normal envelope
    def tail(n_panels):
        """(tail integral, scale of the neglected cross term) on n_panels."""
        Ls, Lw = panel_nodes(L_lo, L_hi, n_panels)
        ka_t = np.exp(Ls)
        # near the top of the range the sector series' divisor (s + 1) 4 ka
        # may round to inf; the term it divides is then exactly 0 in doubles
        with np.errstate(over="ignore"):
            QA1, QA2, QB1, QB2 = _sector_amplitudes(om, coeff, ka_t)
        if which == "occupation":
            dens = np.abs(QB1) ** 2 + np.abs(QB2) ** 2
            cross_scale = np.abs(QB1 * QB2)
        else:
            dens = np.abs(QA1) ** 2 + np.abs(QA2) ** 2 - np.abs(QB1) ** 2 - np.abs(QB2) ** 2
            cross_scale = np.abs(QA1 * QA2) + np.abs(QB1 * QB2)
        return float(np.sum(dens * ka_t * Lw)), cross_scale

    n_panels = max(64, int(0.8 * (om[-1] * (L_hi - L_lo)) / (2.0 * math.pi) * 3.0) + 16)
    tail1, cross_scale = tail(n_panels)
    tail2, _ = tail(2 * n_panels)  # doubled-panel check of the L quadrature
    err_t = abs(tail2 - tail1)
    # neglected oscillatory cross term: boundary-dominated, ~ |Q Q'|(split)/2
    err_cross = float(np.max(cross_scale[:16])) / 2.0
    return SpectrumResult(
        value=finite + tail2,
        est_error=err_f + err_t + err_cross,
        finite_part=finite,
        tail_part=tail2,
    )


def thermal_occupation(omega0, sigma=0.02, scale=DiamondScale(), kappa_split=40.0,
                       tol=1e-7, v0=0.0):
    """Smeared diamond-mode occupation Int dka |B_G(ka)|^2 in the vacuum.

    omega0, sigma are in absolute units, v0 is the packet center in the
    diamond null coordinate; the result is dimensionless and should match
    Int dw |G(w)|^2 / (e^{2 pi w / a} - 1) independently of v0.
    """
    profile = Profile(omega0, sigma, v0).natural(scale.a)
    return _smeared_integral(profile, "occupation", kappa_split, tol)


def completeness_check(omega0, sigma=0.02, scale=DiamondScale(), kappa_split=40.0, tol=1e-7):
    """Smeared Bogoliubov completeness Int dka (|A_G|^2 - |B_G|^2); exactly 1."""
    profile = Profile(omega0, sigma).natural(scale.a)
    return _smeared_integral(profile, "completeness", kappa_split, tol)


def planck_occupation(omega0, sigma=0.02, scale=DiamondScale()):
    """Reference value: packet-averaged Planck factor at T = a / 2 pi."""
    om, wt, G = Profile(omega0, sigma).natural(scale.a).nodes()
    return float(np.sum(wt * np.abs(G) ** 2 / np.expm1(2.0 * math.pi * om)))


def fit_temperature(omega, occupation, scale=DiamondScale()):
    """Temperature from occupations via 1/n = e^{omega/T} - 1, least squares
    through the origin of log(1 + 1/n) against omega."""
    omega = np.asarray(omega, dtype=float)
    n = np.asarray(occupation, dtype=float)
    if np.any(n <= 0.0):
        raise DomainError("occupations must be positive")
    return _temperature_fit(omega, np.log1p(1.0 / n))


def _temperature_fit(x, y):
    """T from Boltzmann exponents y = x / T: least squares through the origin."""
    slope = float(np.sum(x * y) / np.sum(x * x))
    return 1.0 / slope
