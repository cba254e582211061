"""Bogoliubov coefficients between diamond modes and Minkowski plane waves.

Closed forms, with omega and k in units of a (Om = omega/a, ka = k/a) and
A, B in units of 1/a:

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
quadrature handles kappa <= kappa_split = 40, with A_G, B_G from trapezoid sums
of the Euler integral (B_G off the real line where it cancels there), whose
lane errors are part of est_error.  Each integral sums only the kernel rows it
keeps: the occupation conj(K) for B_G alone, the completeness sum K and
conj(K) for A_G and B_G.  The quadrature's kappa lanes are equal
Gauss-Legendre panels, so the sums' phases e^{kappa phi(s)} factor into one
row per panel midpoint and one per node offset, each computed on s >= 0 and
conjugated onto s < 0.  Beyond kappa_split each Kummer sector is a short
series in 1/kappa times kappa^{-+i Om}, so the tail,
e^{+-4 i kappa} cross term included, is a Hermitian form in the series terms,
integrated in closed form term by term.  The second sector is the first with
its frequencies and beat negated, so per series order the form takes one
same-sector block and one cross block, each used with its conjugate.  Both are
formed once per unordered node pair, as the same-sector block is Hermitian and
the cross block symmetric, and gathered onto the full grid of node pairs; the
cross block's by-parts sum and its remainder bound are polynomials in the
pair's frequency sum, with coefficients per order, evaluated by Horner for ten
orders at once.  The profile is cut at its end
nodes, so past the tail window the integrand falls off like 1/ln(kappa)^2, not
like a Gaussian; est_error bounds what the window leaves out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_adaptive
from .errors import DomainError
from .modes import _V_CUT, DEFAULT_SIGMA, Profile, _check_index, _plane_kernel, _sharp_rapidity_integral
from .specfun import kummer_m_vec, log_gamma


_OMEGA_MAX = 50.0  # largest omega of ab_coefficients: kummer_m_vec's certified |Omega|


def ab_coefficients(omega, k, n=0):
    """(A, B) for diamond index n, vectorized over k at fixed omega.

    The domain is 0 < omega <= _OMEGA_MAX = 50, where kummer_m_vec certifies
    M(1 + i omega, 2, z), finite k > 0 and integer n; outside it DomainError
    is raised before any evaluation."""
    ka = np.asarray(k, dtype=float)
    if not 0.0 < omega <= _OMEGA_MAX:
        raise DomainError(f"omega must lie in (0, {_OMEGA_MAX:g}], not {omega!r}")
    if not np.all((ka > 0.0) & (ka < math.inf)):
        raise DomainError("k must be positive and finite")
    _check_index(n)
    # 2 sqrt(omega ka)/sinh(pi omega), overflow-safe in omega
    pref = np.sqrt(omega * ka) * 4.0 * math.exp(-math.pi * omega) / (-math.expm1(-2.0 * math.pi * omega))
    A = pref * np.exp(2j * ka) * kummer_m_vec(1.0 + 1j * omega, 2.0, -4j * ka)
    B = pref * np.exp(-2j * ka) * kummer_m_vec(1.0 + 1j * omega, 2.0, 4j * ka)
    if n:
        A = np.exp(4j * n * ka) * A
        B = np.exp(-4j * n * ka) * B
    return A, B


def ab_numeric(omega, k, n=0):
    """(A, B, est_error) by regularized Klein-Gordon quadrature (independent oracle).

    A = <g_{n,omega}, u_k> reduced to the single absolutely convergent term
    -2i Int dV g dV(u_k*); the discarded boundary term has Abel mean zero.
    It is the sharp rapidity integral of modes on |v| <= 40, on Gauss-Legendre
    panels with one np.exp per node (_sharp_rapidity_integral).  The domain
    is finite omega > 0, finite k > 0 and integer n, else DomainError.
    """
    Om, ka = float(omega), float(k)
    if not (0.0 < Om < math.inf and 0.0 < ka < math.inf):
        raise DomainError("omega and k must be positive and finite")
    _check_index(n)
    vA, vB, err = _sharp_rapidity_integral(lambda v: _plane_kernel(n, v), Om, ka, -_V_CUT, _V_CUT, 1.0)
    c = math.sqrt(ka / Om) / (2.0 * math.pi)
    return (c * vA, -c * vB, c * err)


# ---------------------------------------------------------------------------
# smeared spectra

# Euler-integral route: trapezoid rule in s on |s| <= _EULER_S with step
# _EULER_H, evaluated _EULER_CHUNK panels at a time.  A B_G lane the real-line
# sum cannot hold to _EULER_TOL relative is summed again on the line
# Im s = _EULER_THETA, short of the pole of sech^2 at pi/2
_EULER_H = 0.02
_EULER_S = 20.0
_EULER_TOL = 1e-10
_EULER_CHUNK = 8
_EULER_THETA = 1.2
_EULER_N = round(_EULER_S / _EULER_H)
_EULER_NODES = _EULER_H * np.arange(-_EULER_N, _EULER_N + 1)  # spacing exactly the weight h


def _mirrored_exp(z):
    """e^z on every node of _EULER_NODES, from the exponents z of a row on the
    nodes s >= 0 (last axis) with z(-s) = conj(z(s)).  The nodes h k are
    exactly symmetric and e^{conj z} = conj(e^z), so the nodes s < 0 take the
    conjugates of their mirror images: half the exponentials of a full row."""
    out = np.empty(z.shape[:-1] + (_EULER_NODES.size,), dtype=complex)
    half = np.exp(z, out=out[..., _EULER_N:])
    np.conjugate(half[..., :0:-1], out=out[..., :_EULER_N])
    return out


def _euler_kernels(om, coeff):
    """K(s) = sum_j c_j (2/(pi sqrt(Om_j))) e^{2 i Om_j s}/(2 cosh^2 s) on the
    nodes s = _EULER_NODES (row 0) and s + i _EULER_THETA (row 1), where each
    e^{2 i Om_j s} of the real line gains e^{-2 Om_j theta}.  The row
    e^{2 i Om_j s} takes conjugate values at -s and s, so it is formed on
    s >= 0 (_mirrored_exp), one frequency node at a time."""
    s, theta = _EULER_NODES, _EULER_THETA
    K = np.zeros((2, s.size), dtype=complex)
    for Om, c in zip(om, coeff):
        e = (c * 2.0 / (math.pi * math.sqrt(Om))) * _mirrored_exp(2j * Om * s[_EULER_N:])
        K[0] += e
        K[1] += math.exp(-2.0 * Om * theta) * e
    return K * (0.5 / np.cosh(np.stack([s, s + 1j * theta])) ** 2)


def _exp_outer(x, phase):
    """e^{x phase} for every real x and every node of a phase row on
    _EULER_NODES: the factors of a trapezoid sum.  Both lines' rows satisfy
    phase(-s) = conj(phase(s)): -2i tanh s on the real line, and 2i tanh(s + i theta)
    on the shifted one, where tanh(-s + i theta) = -conj(tanh(s + i theta)).
    So e^{x phase} is formed on s >= 0 only (_mirrored_exp)."""
    return _mirrored_exp(np.multiply.outer(x, phase[_EULER_N:]))


def _trapezoid(mid, off, phase, K):
    """(T_h, err) per lane ka = mid[p] + off[i], panel by panel, and row of K:
    T_h = h sum_s e^{ka phase(s)} K(s), err = |T_h - T_2h| plus the rounding
    scale 1e-15 h sum|K| of the sum.

    e^{ka phase} = e^{mid phase} e^{off phase}: the sums take one phase row
    per panel and one per offset instead of one per lane.  Per chunk of
    _EULER_CHUNK panels and weight column w (T_h and T_2h per row of K), one
    product (e^{mid phase} w) @ e^{off phase} gives the chunk's lanes.
    """
    W = _EULER_H * K.T
    W2 = 2.0 * W
    W2[1::2] = 0.0  # step 2h on every second node
    W = np.concatenate([W, W2], axis=1)
    # a C-ordered copy: matmul on the transposed view takes another BLAS
    # path, whose sums can differ in the last bit
    E_off = np.ascontiguousarray(_exp_outer(off, phase).T)
    T = np.empty((mid.size, off.size, W.shape[1]), dtype=complex)
    for lo in range(0, mid.size, _EULER_CHUNK):
        E_mid = _exp_outer(mid[lo:lo + _EULER_CHUNK], phase)
        for c in range(W.shape[1]):
            T[lo:lo + _EULER_CHUNK, :, c] = (E_mid * W[:, c]) @ E_off
    T = T.reshape(-1, W.shape[1])
    m = len(K)
    rounding = 1e-15 * _EULER_H * np.sum(np.abs(K), axis=1)
    return T[:, :m], np.abs(T[:, :m] - T[:, m:]) + rounding


def _euler_lanes(mid, off, K, with_A=True):
    """(X, err) on the lanes ka = mid[p] + off[i], panel by panel, with K of
    _euler_kernels: rows (A_G, B_G) of X and err, or B_G alone without
    with_A, err as in smeared_ab.  The real-line sum takes one kernel row per
    row of X, K for A_G and conj(K) for B_G, so B_G's lanes are the same
    either way.  B_G is summed again on Im s = _EULER_THETA on the panels
    holding a lane it flags, and only those lanes keep the shifted sum."""
    s = _EULER_NODES
    rows = [K[0], K[0].conj()] if with_A else [K[0].conj()]
    T, err = _trapezoid(mid, off, -2j * np.tanh(s), np.stack(rows))
    T[:, -1] = T[:, -1].conj()
    shift = (err[:, -1] > _EULER_TOL * np.abs(T[:, -1])).reshape(mid.size, off.size)
    panels = shift.any(axis=1)
    if panels.any():
        Ts, es = _trapezoid(mid[panels], off, 2j * np.tanh(s + 1j * _EULER_THETA), K[1:])
        keep = shift[panels].ravel()
        shift = shift.ravel()
        T[shift, -1], err[shift, -1] = Ts[keep, 0], es[keep, 0]
    root = np.sqrt(np.add.outer(mid, off).ravel())
    return root * T.T, root * err.T


def smeared_ab(om, coeff, kappa):
    """(A_G, B_G, err) at the kappa grid for a packet with frequency nodes om
    and combined weights coeff (quadrature weight times profile); err bounds
    the absolute error of each lane of A_G (row 0) and B_G (row 1).

    With t = (1 + tanh s)/2 the Euler integral (DLMF 13.4.1) gives
    A_G, B_G = sqrt(ka) Int ds e^{-+2 i ka tanh s} K(s) with K of _euler_kernels,
    analytic for |Im s| < pi/2, so the trapezoid rule converges exponentially.
    Both come from one real-line sum, which takes the kernel rows K for A_G
    and conj(K) for B_G with the same phase matrices (the occupation sums
    the conj(K) row alone, _euler_lanes).  There B_G ~ e^{-pi Om0} cancels in
    doubles, so a B_G lane with err above _EULER_TOL |B_G| is summed again on
    s + i theta, where K gains e^{-2 Om theta}, |e^{2 i ka tanh s}| <= 1 and
    nothing cancels.  A_G is O(1) and keeps its real-line value and error.
    Each kappa is a lane of its own here; the spectrum integrals hand the
    same sums their quadrature panels, whose phases factor (_trapezoid).
    """
    kappa = np.asarray(kappa, dtype=float)
    X, err = _euler_lanes(kappa, np.zeros(1), _euler_kernels(om, coeff))
    return X[0], X[1], err


# log-kappa tail: where it starts, series terms per Kummer sector, by-parts
# terms per beat integral
_KAPPA_SPLIT = 40.0
_SERIES_TERMS = 10
_PARTS_TERMS = 10
_ORDER_BLOCK = 10  # orders per Horner pass of _beat_kernels: bounds its two buffers


def _sector_terms(om, coeff, kappa_split, sign):
    """(T, r, w): the terms of the packet's Kummer sectors i beyond kappa_split,

        sqrt(ka) X_G = sum_{i,j,s} T[i, j, s] e^{i w_i ka} (ka/kappa_split)^{-(s + i r[i, j])},

    for X = B (sign = 1) or A (sign = -1); (r, w) = (Om_j, -2 sign) in sector 0,
    M's (-z)^{-a} part, and (-Om_j, 2 sign) in sector 1, its e^z z^{a-2} part.
    """
    z = 4j * sign * kappa_split
    a = 1.0 + 1j * om
    # ln(kappa_split 2 sqrt(Om)/sinh(pi Om)), overflow-safe in Om
    log_pref = (np.log(4.0 * kappa_split * np.sqrt(om)) - math.pi * om
                - np.log(-np.expm1(-2.0 * math.pi * om)))
    T = np.empty((2, om.size, _SERIES_TERMS), dtype=complex)
    T[0, :, 0] = coeff * np.exp(log_pref - a * np.log(-z) - log_gamma(1.0 - 1j * om))
    T[1, :, 0] = coeff * np.exp(log_pref + (a - 2.0) * np.log(z) - log_gamma(a))
    # inverse-power series in v: T_s = T_{s-1} (p + s - 1)(q + s - 1)/(s v)
    p, q, v = np.stack([a, 1.0 - 1j * om]), np.stack([1j * om, -1j * om]), np.array([[-z], [z]])
    for s in range(1, _SERIES_TERMS):
        T[..., s] = T[..., s - 1] * ((p + s - 1) * (q + s - 1) / (s * v))
    return T, np.stack([om, -om]), np.array([-2.0, 2.0]) * sign


def _by_parts_coeffs(y, orders):
    """(Kc, Rc): per order m < orders (column m), the coefficients in ascending
    powers of d of the beat integral's by-parts sum

        e^{-y}/y sum_{n < _PARTS_TERMS} (mu + 1)_n (-1/y)^n,   mu = m + i d,

    and in powers of d^2 of the square of its remainder bound
    |e^{-y}| prod_{l <= _PARTS_TERMS} |mu + l| / (|y|^_PARTS_TERMS (_PARTS_TERMS + m))."""
    R, m = _PARTS_TERMS, np.arange(orders)
    # nested from the inside, in x = i d: q <- 1 + (m + l + x) q / (-y)
    q = np.zeros((R, orders), dtype=complex)
    q[0] = 1.0
    for l in range(R - 1, 0, -1):
        shifted = (m + l) * q
        shifted[1:] += q[:-1]
        q = shifted / -y
        q[0] += 1.0
    Kc = q * (np.exp(-y) / y * 1j ** np.arange(R))[:, None]
    # prod_l ((m + l)^2 + d^2), one factor at a time
    Rc = np.zeros((R + 1, orders))
    Rc[0] = 1.0
    for l in range(1, R + 1):
        shifted = (m + l) ** 2 * Rc
        shifted[1:] += Rc[:-1]
        Rc = shifted
    return Kc, Rc * (abs(np.exp(-y)) / (abs(y) ** R * (R + m))) ** 2


def _beat_kernels(Kc, Rc, d):
    """Per order m (column of the tables of _by_parts_coeffs), the by-parts sum
    on the frequency sums d and the square root of its remainder bound.  Both
    polynomials run by Horner in place on _ORDER_BLOCK orders at once, the real
    and imaginary parts of Kc apart (the roundings of a complex Horner on a
    real d) and each on a contiguous buffer, whose rows are yielded in order:
    a row is overwritten by the next pass, so each must be used before the
    next is drawn."""
    def horner(c, x, out):
        np.multiply(c[-1][:, None], x, out=out)
        for ck in c[-2:0:-1]:
            out += ck[:, None]
            out *= x
        out += c[0][:, None]

    beat = np.empty((_ORDER_BLOCK, d.size), dtype=complex)
    remainder = np.empty((_ORDER_BLOCK, d.size))
    for lo in range(0, Kc.shape[1], _ORDER_BLOCK):
        kc, rc = Kc[:, lo:lo + _ORDER_BLOCK], Rc[:, lo:lo + _ORDER_BLOCK]
        b, r = beat[:kc.shape[1]], remainder[:kc.shape[1]]
        for part, c in ((b.real, kc.real), (b.imag, kc.imag)):
            horner(c, d, r)  # r is free until the remainder's pass
            part[...] = r
        horner(rc, d * d, r)
        yield from zip(b, np.sqrt(r, out=r))


def _unconverged(kappa_split):
    return DomainError(f"sector series not converged at kappa_split = {kappa_split:g}: "
                       "the packet's frequencies are too high for the log-kappa tail")


def _tail_integral(T, r, w, kappa_split, dL):
    """(value, est_error) of Int dL |sqrt(ka) X_G|^2 on ln(kappa_split) + [0, dL],
    exactly, as the Hermitian form sum T K conj(T) in the terms of _sector_terms.

    K depends on s, t only through m = s + t in mu = m + i(r_j - r_k).  Sector 1
    has the r and w of sector 0 negated (_sector_terms), so its same-sector K is
    the conjugate of sector 0's and the (1, 0) beat block is the conjugate of the
    (0, 1) block: per m, one K for the same-sector pairs and one for the beat.
    Same-sector pairs give K = Int_0^dL e^{-mu L} dL = (1 - e^{-m dL} E)/mu, with
    the phase E = e^{-i(r_j - r_k) dL} formed once (expm1 at m = 0, dL where
    mu = 0).  Beat pairs give K = Int_1^inf t^{-mu-1} e^{-y t} dt with
    y = -i(w_0 - w_1) kappa_split, integrated by parts: a polynomial in
    d = r_0j - r_1k per order m (_by_parts_coeffs), evaluated by Horner for
    _ORDER_BLOCK orders at once (_beat_kernels).  Both kernels are formed on
    the n(n + 1)/2 unordered node pairs j <= k only: d = Om_j + Om_k is
    symmetric, and r_j - r_k antisymmetric with E and the division at -dr the
    conjugates of those at dr, bit for bit.  One gather per order spreads
    each onto the n x n grid, conjugating the same-sector K below the
    diagonal, and the products and dots per order run on the full grid.
    """
    S = T.shape[-1]
    absT = np.abs(T)
    # The omitted terms are below the last kept.  |f| <= sum |T| as every term
    # decays in L, so value <= dL (sum |T|)^2: a series that cannot pass the
    # check on the value below (here with a factor 2 for its rounding) fails
    # before the form is built.  Terms that all underflow to 0 (omega0 above
    # about 127) leave no tail to check.
    size = float(np.sum(absT))
    truncation = 2.0 * float(np.sum(absT[..., -1]) * size)
    if not 0.0 < truncation <= 2e-10 * dL * size * size < math.inf:
        raise _unconverged(kappa_split)
    # the kernels on the unordered node pairs j <= k: sym[j, k] is the pair of {j, k}
    n = r.shape[1]
    j, k = np.triu_indices(n)
    sym = np.empty((n, n), dtype=np.intp)
    sym[j, k] = sym[k, j] = np.arange(j.size)
    lower = np.tri(n, k=-1, dtype=bool)
    dr = r[0][j] - r[0][k]
    zero = dr == 0.0
    idr = 1j * dr
    E = np.exp(-1j * dr * dL)  # e^{-mu dL} = e^{-m dL} E for every m
    d = r[0][j] - r[1][k]
    Kc, Rc = _by_parts_coeffs(-1j * (w[0] - w[1]) * kappa_split, 2 * S - 1)
    # Re sum K P_00 + conj(K) P_11 = Re sum K (P_00 + conj(P_11)): one product per m
    U = np.concatenate([T[0], T[1].conj()], axis=1)
    V = np.concatenate([T[0].conj(), T[1]], axis=1)
    absU = np.concatenate([absT[0], absT[1]], axis=1)
    value = rounding = parts = 0.0
    for m, (beat, remainder) in enumerate(_beat_kernels(Kc, Rc, d)):
        s = np.arange(max(0, m - S + 1), min(m, S - 1) + 1)
        left, right = np.concatenate([s, S + s]), np.concatenate([m - s, S + m - s])
        if m == 0:
            K = np.where(zero, dL, -np.expm1(-1j * dr * dL) / np.where(zero, 1.0, idr))
        else:
            K = (1.0 - math.exp(-m * dL) * E) / (m + idr)
        rounding += np.dot(np.abs(K)[sym].ravel(), (absU[:, left] @ absU[:, right].T).ravel())
        # dr is antisymmetric and K(-dr) = conj(K(dr)) bit for bit: K is Hermitian
        K = K[sym]
        np.negative(K.imag, out=K.imag, where=lower)
        value += np.dot(K.ravel(), (U[:, left] @ V[:, right].T).ravel())
        # the (0, 1) beat block, twice; symmetric, as d = Om_j + Om_k
        scale = (absT[0][:, s] @ absT[1][:, m - s].T).ravel()
        value += 2.0 * np.dot(beat[sym].ravel(), (T[0][:, s] @ T[1][:, m - s].conj().T).ravel())
        rounding += 2.0 * np.dot(np.abs(beat)[sym].ravel(), scale)
        # |Int_1^inf t^{-mu-1-R} e^{-y t} dt| <= 1/(R + m)
        parts += 2.0 * np.dot(remainder[sym].ravel(), scale)
    if not truncation <= 1e-10 * value.real:
        raise _unconverged(kappa_split)
    return float(value.real), 1e-14 * rounding + parts + truncation


# largest ln(kappa) whose Kummer argument 4 kappa is a finite double
_L_MAX = math.log(np.finfo(float).max / 4.0)
_SPECTRUM_TOL = 1e-7  # absolute doubling tolerance of the kappa <= _KAPPA_SPLIT quadrature


@dataclass(frozen=True)
class SpectrumResult:
    value: float
    est_error: float
    finite_part: float
    tail_part: float


def _smeared_integral(profile, which):
    """Int dka of |B_G|^2 ('occupation') or |A_G|^2 - |B_G|^2 ('completeness')
    for a Profile in units of a = 1: quadrature up to _KAPPA_SPLIT, the
    log-kappa tail in closed form beyond it."""
    # tail in L = ln(kappa) until the Gaussian envelope, centred at most |v0|
    # past L_lo, is below 1e-21 of its peak: reach past that centre
    L_lo = math.log(_KAPPA_SPLIT)
    reach = 2.0 + 7.0 / profile.checked().sigma
    dL = reach + abs(profile.v0)
    if L_lo + dL > _L_MAX:
        raise DomainError(
            f"sigma = {profile.sigma:g}, v0 = {profile.v0:g} (in units of a): the log-kappa "
            f"tail would reach kappa = e^{L_lo + dL:.4g}, beyond double precision"
        )
    om, wt, G = profile.nodes()
    coeff = wt * G

    def tail_of(sign):
        T, r, w = _sector_terms(om, coeff, _KAPPA_SPLIT, sign)
        value, err = _tail_integral(T, r, w, _KAPPA_SPLIT, dL)
        # The profile is cut at its end nodes, so past the window a sector
        # decays like g/(L - c), not like a Gaussian: g = |T/wt| is its density
        # at an end node and c, the envelope centre, at most |v0| past L_lo.
        # The window leaves out up to (sum g)^2 / reach.
        g = np.sum(np.abs(T[:, [0, -1], 0]) / wt[[0, -1]])
        return value, err + g * g / reach

    # the tail first: an unconverged sector series fails before the quadrature
    tail, err_t = tail_of(1)
    if which == "completeness":
        tail_A, err_A = tail_of(-1)
        tail, err_t = tail_A - tail, err_A + err_t

    lo, K = 1e-9, _euler_kernels(om, coeff)

    def f(kappa, mid, off):
        # the lanes are integrate_adaptive's equal panels, so their phases
        # factor; the occupation sums B_G alone
        X, err = _euler_lanes(mid, off, K, which == "completeness")
        absX = np.abs(X)
        # ||X + d|^2 - |X|^2| <= (2|X| + e) e for a lane error |d| <= e
        lane = (2.0 * absX + err) * err
        if which == "occupation":
            return absX[0] ** 2, lane[0]
        return absX[0] ** 2 - absX[1] ** 2, lane[0] + lane[1]

    # |A_G|^2, |B_G|^2 carry e^{+-4 i kappa} beat terms; the lane errors bound each node
    finite, err_f = integrate_adaptive(f, lo, _KAPPA_SPLIT, _SPECTRUM_TOL, est_freq=4.0)
    return SpectrumResult(finite + tail, err_f + err_t, finite, tail)


def thermal_occupation(omega0, sigma=DEFAULT_SIGMA, v0=0.0):
    """Smeared diamond-mode occupation Int dka |B_G(ka)|^2 in the vacuum.

    omega0, sigma are in units of a, v0 in units of 1/a (the packet peaks at
    v = -v0 in the diamond rapidity, Profile); the result is dimensionless and
    should match Int dw |G(w)|^2 / (e^{2 pi w} - 1) independently of v0.  The
    log-kappa tail must end below kappa = e^708: |v0| + 7/sigma <= 702, else DomainError.
    Its sector series converges while the top node omega0 + 8 sigma stays below
    about 6 (6.02 at sigma = 0.3, 6.41 at sigma = 0.02); higher packets raise
    DomainError before any quadrature, also where the series terms underflow
    to 0 (omega0 above about 127), which no check could then tell from a
    converged tail.
    """
    return _smeared_integral(Profile(omega0, sigma, v0), "occupation")


def completeness_check(omega0, sigma=DEFAULT_SIGMA):
    """Smeared Bogoliubov completeness Int dka (|A_G|^2 - |B_G|^2); exactly 1."""
    return _smeared_integral(Profile(omega0, sigma), "completeness")


def planck_occupation(omega0, sigma=DEFAULT_SIGMA):
    """Reference value: packet-averaged Planck factor at T = 1/2 pi.  Where
    e^{2 pi omega} passes the double range (omega above about 113) its
    terms are the underflowed 0, without an overflow warning."""
    om, wt, G = Profile(omega0, sigma).nodes()
    with np.errstate(over="ignore"):
        return float(np.sum(wt * np.abs(G) ** 2 / np.expm1(2.0 * math.pi * om)))


def fit_temperature(omega, occupation):
    """Temperature from occupations via 1/n = e^{omega/T} - 1, least squares
    through the origin of log(1 + 1/n) against omega.  The occupations must
    be finite normal doubles, where 1/n stays finite; the grid as in
    _temperature_fit."""
    omega = np.asarray(omega, dtype=float)
    n = np.asarray(occupation, dtype=float)
    if omega.ndim != 1 or n.shape != omega.shape:
        raise DomainError("omega and occupation must be 1-D and of equal length")
    if not np.all(np.isfinite(n) & (n >= np.finfo(float).tiny)):
        raise DomainError("occupations must be finite and at least the smallest normal double")
    return _temperature_fit(omega, np.log1p(1.0 / n))


def _temperature_fit(x, y):
    """T from Boltzmann exponents y = x / T: least squares through the origin,
    on a grid x with a nonzero point whose sum of squares is a finite double;
    DomainError where it is not, and where the slope is 0 (every ratio 1, as
    for a detector window too short to resolve one)."""
    with np.errstate(over="ignore"):  # an overflow to inf fails the check below
        xx = np.sum(x * x)
    if not (math.isfinite(xx) and xx > 0.0):
        raise DomainError("the grid must hold a nonzero point and its squares a finite sum")
    slope = float(np.sum(x * y) / xx)
    if slope == 0.0:
        raise DomainError("the Boltzmann exponents are 0: no finite temperature fits them")
    return 1.0 / slope
