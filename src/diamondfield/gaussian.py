"""Gaussian wavepacket modes, quadrature covariances and the squeezing witness.

All frequencies and bandwidths here are in units of a and positions in units
of 1/a.  Quadratures follow X(phi) = b e^{-i phi} + b+ e^{i phi}, so a
Minkowski vacuum packet has variance 1 (the shot-noise floor).  Covariance
matrices are stored in the ordering (X_1(0), X_1(pi/2), X_2(0), ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import panel_nodes
from .bogoliubov import planck_occupation
from .correlations import adjacent_moments_analytic, cross_moments
from .errors import ConvergenceError, DomainError
from .modes import DEFAULT_SIGMA, Packet

WITNESS_MARGIN = 1e-6


@dataclass(frozen=True)
class WavepacketSpec(Packet):
    """A Packet that build_covariance takes: an unconjugated diamond-n (or
    free Minkowski) packet with omega0 >= 5 sigma, the narrow-band assumption
    behind the mode algebra."""

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("diamond", "plane") or self.conj or self.omega0 < 5.0 * self.sigma:
            raise DomainError("need an unconjugated diamond or plane packet with omega0 >= 5 sigma")


@dataclass(frozen=True)
class CovarianceMatrix:
    modes: tuple
    matrix: np.ndarray = field(repr=False)
    est_error: float
    min_symplectic_eig: float


def _same_diamond_occupation(s1, s2):
    """<b1+ b2> for two packets in the same diamond: the thermal kernel is
    diagonal in frequency, so this is the Planck-weighted profile overlap,
    its terms 0 where e^{2 pi omega} overflows (planck_occupation)."""
    lo = max(min(s1.omega0 - 8 * s1.sigma, s2.omega0 - 8 * s2.sigma), 1e-12)
    hi = max(s1.omega0 + 8 * s1.sigma, s2.omega0 + 8 * s2.sigma)
    om, wt = panel_nodes(lo, hi, 64)
    prof = np.conj(s1.profile.amplitude(om)) * s2.profile.amplitude(om)
    with np.errstate(over="ignore"):
        return complex(np.sum(wt * prof / np.expm1(2.0 * math.pi * om)))


def _mode_moments(specs, adjacent):
    """(N, M, err) with N[i, j] = <bi+ bj> and M[i, j] = <bi bj>."""
    m = len(specs)
    N = np.zeros((m, m), dtype=complex)
    M = np.zeros((m, m), dtype=complex)
    err = 0.0
    kinds = {s.kind for s in specs}
    if kinds == {"plane"}:
        return N, M, err  # Minkowski packets: vacuum, all moments zero
    if "plane" in kinds:
        raise DomainError("cannot mix plane and diamond packets in one set")

    for i, si in enumerate(specs):
        N[i, i] = planck_occupation(si.omega0, si.sigma)
        for j in range(i + 1, m):
            sj = specs[j]
            dn = sj.n - si.n
            if dn == 0:
                N[i, j] = _same_diamond_occupation(si, sj)
                N[j, i] = np.conj(N[i, j])
                continue  # <b b> vanishes within one diamond
            lo, hi = (si, sj) if dn > 0 else (sj, si)
            if abs(dn) == 1 and adjacent == "analytic":
                cm = adjacent_moments_analytic(lo.profile, hi.profile)
            else:
                cm = cross_moments(lo.profile, hi.profile, abs(dn))
            err += cm.est_error
            M[i, j] = M[j, i] = cm.m_minus
            if dn > 0:
                N[i, j] = cm.m_plus
                N[j, i] = np.conj(cm.m_plus)
            else:
                N[j, i] = cm.m_plus
                N[i, j] = np.conj(cm.m_plus)
    return N, M, err


def build_covariance(specs, adjacent="analytic"):
    """Vacuum covariance matrix of the quadratures of the given WavepacketSpec modes.

    The occupations on the diagonal are the closed-form thermal values
    (planck_occupation).  adjacent selects the nearest-neighbour moment
    route: 'analytic' the closed forms, 'kg' the KG-product rapidity
    integral of cross_moments; anything else is a DomainError.
    """
    specs = tuple(specs)
    m = len(specs)
    if m == 0:
        raise DomainError("need at least one mode")
    if not all(isinstance(s, WavepacketSpec) for s in specs):
        raise DomainError("covariance modes must be WavepacketSpec packets")
    if adjacent not in ("analytic", "kg"):
        raise DomainError(f"adjacent must be 'analytic' or 'kg', not {adjacent!r}")
    N, M, err = _mode_moments(specs, adjacent)
    # X(0) = b + b+ and X(pi/2) = -i b + i b+, interleaved per mode
    eye = np.eye(m)
    cov = np.empty((2 * m, 2 * m))
    cov[0::2, 0::2] = 2.0 * np.real(M + N) + eye
    cov[0::2, 1::2] = 2.0 * np.imag(M + N)
    cov[1::2, 0::2] = 2.0 * np.imag(M - N)
    cov[1::2, 1::2] = 2.0 * np.real(N - M) + eye
    cov = 0.5 * (cov + cov.T)
    eig = np.linalg.eigvalsh(cov + 1j * np.kron(eye, [[0.0, 1.0], [-1.0, 0.0]]))
    if eig[0] < -1e-9:
        raise ConvergenceError(f"unphysical covariance, min eig {eig[0]:.3e}")
    return CovarianceMatrix(modes=specs, matrix=cov, est_error=err,
                            min_symplectic_eig=float(eig[0]))


def _check_phases(*phis):
    if not all(map(math.isfinite, phis)):
        raise DomainError("phi must be finite")


def mode_variance(cov, i, phi=0.0):
    """V(X_i(phi)) from the stored covariance, for finite phi."""
    if not 0 <= i < len(cov.modes):
        raise IndexError(f"mode index must lie in [0, {len(cov.modes)})")
    _check_phases(phi)
    c, s = math.cos(phi), math.sin(phi)
    u = np.zeros(cov.matrix.shape[0])
    u[2 * i], u[2 * i + 1] = c, s
    return float(u @ cov.matrix @ u)


def joint_variance(cov, i, j, sign, phi=0.0):
    """V((X_i(phi) + sign * X_j(phi)) / sqrt 2), sign in {+1, -1}, finite phi."""
    m = len(cov.modes)
    if not (0 <= i < m and 0 <= j < m) or i == j:
        raise IndexError(f"joint variance needs two distinct mode indices in [0, {m})")
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    _check_phases(phi)
    s = float(sign)
    c, sn = math.cos(phi), math.sin(phi)
    u = np.zeros(cov.matrix.shape[0])
    u[2 * i], u[2 * i + 1] = c / math.sqrt(2.0), sn / math.sqrt(2.0)
    u[2 * j], u[2 * j + 1] = s * c / math.sqrt(2.0), s * sn / math.sqrt(2.0)
    return float(u @ cov.matrix @ u)


def squeezing_witness(cov, i, j):
    """Two-mode squeezing criterion: both V(X-(0)) and V(X+(pi/2)) below 1."""
    v_minus = joint_variance(cov, i, j, -1, 0.0)
    v_plus = joint_variance(cov, i, j, +1, math.pi / 2.0)
    entangled = (v_minus < 1.0 - WITNESS_MARGIN) and (v_plus < 1.0 - WITNESS_MARGIN)
    return {"entangled": entangled, "V_minus_0": v_minus, "V_plus_half_pi": v_plus}


def fig2_sweep(phi_list=(0.0, 0.2 * math.pi), omega1_grid=None, sigma=DEFAULT_SIGMA):
    """Joint-variance sweep between a zeroth- and a first-diamond packet.

    Returns rows (phi, omega1, V_minus, V_plus, entangled) as a dict of
    arrays, ordered by (phi, omega1).  The zeroth packet is fixed at
    (1.0, sigma, 0); the first-diamond packet (omega1, sigma, 0) runs over
    omega1_grid.  entangled is the squeezing_witness verdict of each
    covariance, independent of phi.  Every phi must be finite.
    """
    phi_list = tuple(phi_list)
    _check_phases(*phi_list)
    if omega1_grid is None:
        omega1_grid = np.arange(0.5, 1.5 + 1e-9, 0.01)
    omega1_grid = np.asarray(omega1_grid, dtype=float)
    covs = []
    for om1 in omega1_grid:
        cov = build_covariance([
            WavepacketSpec(0, 1.0, sigma),
            WavepacketSpec(1, float(om1), sigma),
        ])
        covs.append((float(om1), cov, squeezing_witness(cov, 0, 1)["entangled"]))
    tab = {key: [] for key in ("phi", "omega1", "v_minus", "v_plus", "entangled")}
    for phi in phi_list:
        for om1, cov, flag in covs:
            row = (float(phi), om1, joint_variance(cov, 0, 1, -1, phi),
                   joint_variance(cov, 0, 1, +1, phi), flag)
            for col, x in zip(tab.values(), row):
                col.append(x)
    return {key: np.array(col) for key, col in tab.items()}
