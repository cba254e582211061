"""Correlations between modes of different diamonds in the chain.

The zeroth-diamond operators correlate with the nth-diamond ones through the
exterior mode: with the package Klein-Gordon conventions,

    <b0(G0) bn(G1)>  = conj( <P_n, E_minus> ),
    <b0(G0)+ bn(G1)> = conj( <P_n, E_plus> ),

where P_n carries weights G1(w') on diamond-n modes, E_minus is the exterior
mode weighted by conj(G0(w)) / (2 sinh pi Omega), and E_plus the conjugated
exterior mode weighted accordingly.  Each such product is one absolutely
convergent integral over the diamond rapidity: with the packets summed
inside, on nested trapezoid grids, for the smeared moments (_overlap,
cross_moments), and for one frequency per side on Gauss-Legendre panels for
the sharp coefficients (alpha_beta_numeric).  For adjacent diamonds (n = 1) there is
a closed form in Gamma functions; for large n the moments fall off as 1/n^2.

Frequencies are in units of a and packet centres v0 in units of 1/a; the
sharp alpha and beta are in units of 1/a, the smeared moments dimensionless.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._quad import _MAX_NODES, panel_nodes
from .errors import DomainError, PoleError
from .modes import (_SPAN, _TAIL, _V_CUT, Profile, _check_index, _node_count, _rapidity_integral,
                    _sharp_rapidity_integral, _taylor_sum)
from .specfun import log_gamma_1pix

_POLE_GUARD = 1e-12


def _frequencies(*W):
    """DomainError unless every frequency is positive and finite."""
    if not all(0.0 < w < math.inf for w in W):
        raise DomainError("frequencies must be positive and finite")


def _sinh_pi(W):
    """sinh(pi W) on an array; inf without a warning where it overflows (pi W
    above 710), so that the weights divided by it underflow to 0."""
    with np.errstate(over="ignore"):
        return np.sinh(math.pi * W)


def _gamma_logs(W, z):
    """(log e(W), log Gamma(iz)) for real W and real z != 0 from one
    log_gamma_1pix call on both: e = 2^{iW} / Gamma(1 - iW), and
    log Gamma(iz) = log Gamma(1 + iz) - log(iz)."""
    lg = log_gamma_1pix(np.concatenate([W, z]))
    return (1j * W * math.log(2.0) - np.conj(lg[:W.size]),
            lg[W.size:] - np.log(np.abs(z)) - 0.5j * math.pi * np.sign(z))


def _exp_sum(a, b):
    """e^{a + b} for complex logs a and b whose real parts may each pass the
    double range while their sum does not.  The real parts are added before
    one exp, and the rounding r of that sum s is put back as e^s (1 + r)
    (Knuth's two-sum), so the result is as accurate as e^a e^b; the phases,
    which can reach thousands, are multiplied, not added."""
    s = a.real + b.real
    t = s - a.real
    r = (a.real - (s - t)) + (b.real - t)
    m = np.exp(s)
    return (m + m * r) * np.exp(1j * a.imag) * np.exp(1j * b.imag)


def _log_a(W, le):
    """log A(W) from le = log e(W) (_gamma_logs), A = sqrt(W) e(W): the
    adjacent closed forms split as conj(alpha(W, W')) = A(W) Gamma(i(W' - W))
    / (2 pi A(W')) and conj(beta(W, W')) = -conj(A(W)) Gamma(i(W + W')) /
    (2 pi A(W'))."""
    return 0.5 * np.log(W) + le


def alpha_beta_adjacent(Omega, Omega_p):
    """Sharp adjacent-diamond coefficients (alpha, beta) in closed form.

    Omega is the exterior-mode frequency, Omega_p the first-diamond one, both
    in units of a.  alpha = <g1_{w'}, gex_w>, beta = <g1_{w'}, gex_w*>
    in the package KG convention; alpha has a simple pole at Omega = Omega_p.
    A(W) grows like e^{pi W / 2} and the Gamma kernels fall as fast, so each
    coefficient is one exp of their summed logs (_exp_sum), finite at every
    frequency; a coefficient below the double range underflows to 0.
    """
    _frequencies(Omega, Omega_p)
    if abs(Omega - Omega_p) < _POLE_GUARD:
        raise PoleError("alpha diverges at Omega = Omega_p; smear into packets")
    W = np.array([Omega, Omega_p])
    le, lK = _gamma_logs(W, np.array([Omega - Omega_p, -(Omega_p + Omega)]))
    la, lp = _log_a(W, le)
    alpha = _exp_sum(np.conj(la - lp), lK[0]) / (2.0 * math.pi)
    beta = -_exp_sum(la - np.conj(lp), lK[1]) / (2.0 * math.pi)
    return complex(alpha), complex(beta)


def _kernel(n, v):
    """(base, L) of the diamond-n / exterior overlap at diamond rapidity v:
    base = sech^2(v/2) / (V^2 - 4) and L = ln((V + 2)/(V - 2)), where
    V = 4n + 2 tanh(v/2).  V -+ 2 are formed without cancellation at the tip
    the first diamond shares with the exterior boundary (v -> -inf).

    The exterior phase turns at |dL/dv| = 4 sech^2(v/2) / ((V - 2)(V + 2)).
    For n >= 2, V lies in (4n - 2, 4n + 2), so V - 2 > 4(n - 1), V + 2 > 4n
    and |dL/dv| < 1/(4n(n - 1)).  For n = 1, sech^2(v/2) / (V - 2) =
    1/(1 + e^v) and |dL/dv| = 4/((1 + e^v)(V + 2)), which tends to 1 at the
    shared tip."""
    s = np.logaddexp(0.0, -v)  # -ln((1 + tanh(v/2)) / 2)
    Vp2 = 4.0 * n + 4.0 * np.exp(-s)  # V + 2
    if n == 1:
        # sech^2(v/2)/(V^2-4) with the 1/(V-2) tip cancellation done exactly
        return 1.0 / (1.0 + np.exp(v)) / Vp2, np.log(Vp2 / 4.0) + s
    Vm2 = 4.0 * (n - 1) + 4.0 * np.exp(-s)  # V - 2
    return np.cosh(v / 2.0) ** -2 / (Vm2 * Vp2), np.log(Vp2) - np.log(Vm2)


def _rate(n):
    """The bound on |dL/dv| of _kernel, at which the exterior phases turn per
    unit of max om_x: 1/(4n(n - 1)) for n >= 2 (0.125 at n = 2, against a sup
    of 0.072), 1 for n = 1."""
    return 1.0 if n == 1 else 0.25 / (n * (n - 1))


def _overlap(n, om_d, p, om_x, e, lo, hi):
    """(<P, E>, <P, E*>, est_error) for the diamond-n packet P = sum_j p_j g_{n,om_d[j]}
    and the exterior packet E = sum_k e_k g_{ex,om_x[k]}: by parts, alpha(W, W') =
    (2/pi) sqrt(W/W') Int dv base e^{-i(W' v + W L)} with the (base, L) of _kernel,
    and beta the same with -base and W -> -W, on v in [lo, hi]."""
    I, J, err = _rapidity_integral(lambda v: _kernel(n, v), om_d, p / np.sqrt(om_d),
                                   om_x, np.conj(e) * np.sqrt(om_x), lo, hi, _rate(n))
    k = 2.0 / math.pi
    return k * I, k * J, k * err


def alpha_beta_numeric(Omega, Omega_p, n=1):
    """(alpha, beta, est_error) for diamond n >= 1 by rapidity quadrature.

    The integral of _overlap for one frequency per side runs over |v| <= 40,
    on the Gauss-Legendre panels of modes._sharp_rapidity_integral, so this
    reference shares no grid with cross_moments.  For n = 1
    the integrand does not decay toward the tip shared with the exterior
    boundary, where it approaches a pure oscillation whose Abel mean is added
    in closed form, and alpha has a pole at Omega = Omega_p.  For n >= 2 the
    integrand is ~1e-17 at the cut and alpha is finite on the diagonal.
    """
    _check_index(n, 1, "diamond separation")
    _frequencies(Omega, Omega_p)
    if n == 1 and abs(Omega - Omega_p) < _POLE_GUARD:
        raise PoleError("alpha diverges at Omega = Omega_p; smear into packets")

    k = (2.0 / math.pi) * math.sqrt(Omega / Omega_p)
    al, be, err = (k * x for x in _sharp_rapidity_integral(lambda v: _kernel(n, v), Omega_p, Omega,
                                                           -_V_CUT, _V_CUT, _rate(n)))
    if n == 1:
        # Abel means of the residual oscillations beyond the lower cut
        base, L = _kernel(1, -_V_CUT)
        f = (2.0 / math.pi) * math.sqrt(Omega / Omega_p) * base * np.exp(1j * Omega_p * _V_CUT)
        al += f * np.exp(-1j * Omega * L) / (1j * (Omega - Omega_p))
        be += f * np.exp(1j * Omega * L) / (1j * (Omega + Omega_p))
    return complex(al), complex(be), err


# ---------------------------------------------------------------------------
# smeared cross moments

@dataclass(frozen=True)
class CrossMoments:
    """Vacuum second moments between two smeared diamond modes:
    m_minus = <b0 bn>, m_plus = <b0+ bn>."""

    m_minus: complex
    m_plus: complex
    est_error: float


def _cut_size(om, c, exterior, lo, hi):
    """(2/pi) Int_lo^hi dv |base S| for the n = 1 kernel (_kernel) and the
    packet sum S = sum_k c[k] e^{-i om[k] t}, t = L(v) for the exterior
    packet and t = v for the diamond one (_taylor_sum), on about 3 panels per
    turn of its fastest phase (|dL/dv| <= 1); 0 for an empty range."""
    panels = max(4, math.ceil(3.0 * (hi - lo) * float(np.max(om)) / (2.0 * math.pi)))
    v, w = panel_nodes(lo, hi, panels)
    base, L = _kernel(1, v)
    # summed panel by panel, as integrate_adaptive sums
    vals = np.abs(base * _taylor_sum(om, c, L if exterior else v)[0]) * w
    return (2.0 / math.pi) * float(vals.reshape(panels, -1).sum(axis=-1).sum())


def cross_moments(spec0, spec_n, n):
    """Smeared <b0 bn> and <b0+ bn> for Gaussian packets spec = (omega0, sigma)
    or (omega0, sigma, v0), the nth packet living in diamond n >= 1.

    One _overlap integral with both profiles summed inside, each on
    m = _node_count(p0, p1) nodes in sqrt(omega) over omega0 +- _SPAN sigma
    (Profile.nodes(m, root=True), exact at an omega = 0 endpoint).  For n >= 2
    it runs over |v| <= 40, where sech^2(v/2) is ~1e-17.  For n = 1 the
    weight tends to 1/4 at the tip shared with the exterior boundary, so it
    runs where both envelopes overlap: from lo, the higher of the diamond
    packet's edge -|v0_1| - _TAIL/sigma_1 and the exterior packet's, whose
    sum X(L) ends at L_max = -v0_0 + _TAIL/sigma_0, at v(L_max) with the exact
    inverse v(L) = -L - log1p(-2 e^{-L}) (lo = 40 if L_max <= ln 2, the least
    L).  est_error adds what the cuts drop.  On [lo2, lo], lo2 the lower edge,
    the packet cut at lo is worth its Gaussian edge e^{-_TAIL^2} sum|c| plus
    its omega = 0 tail, |G0(0)| / (2 sqrt(pi L)) at L(lo) for the exterior
    packet and |G1(0)| sqrt(pi / |lo|) for the diamond one, times (2/pi)
    Int |base S| over the other packet's sum S (_cut_size).  Below lo2 the two
    tails multiply into c / |v|: the infrared term c ln(W_top |lo2|) of
    adjacent_moments_analytic with 1/|lo2| as its lowest node,
    c = |G0(0) G1(0)| / 4pi and W_top the larger omega0 + _SPAN sigma.
    G takes exact node offsets (Profile.nodes), so node rounding adds no term.
    """
    _check_index(n, 1, "diamond separation")
    p0 = Profile(*spec0).checked()
    p1 = Profile(*spec_n).checked()
    m = _node_count(p0, p1)
    o0, w0, G0 = p0.nodes(m, root=True)
    o1, w1, G1 = p1.nodes(m, root=True)
    e = w0 * np.conj(G0) / (2.0 * _sinh_pi(o0))  # E_minus; E_plus = conj
    if n >= 2:
        mm, mp, err = _overlap(n, o1, w1 * G1, o0, e, -_V_CUT, _V_CUT)
        return CrossMoments(np.conj(mm), np.conj(mp), err)

    L_max = _TAIL / p0.sigma - p0.v0
    edge_x = -L_max - math.log1p(-2.0 * math.exp(-L_max)) if L_max > math.log(2.0) else math.inf
    edge_d = -abs(p1.v0) - _TAIL / p1.sigma
    lo, lo2 = min(max(edge_x, edge_d), _V_CUT), min(edge_x, edge_d)
    mm, mp, err = _overlap(1, o1, w1 * G1, o0, e, lo, _V_CUT)
    c_x, c_d = np.conj(e) * np.sqrt(o0), w1 * G1 / np.sqrt(o1)  # the sums X and P of _overlap
    g0, g1 = abs(p0.amplitude(0.0)), abs(p1.amplitude(0.0))
    if edge_x >= edge_d:  # the exterior packet is cut on [lo2, lo], the diamond one kept
        c_cut, tail, kept = c_x, g0 / (2.0 * math.sqrt(math.pi * _kernel(1, lo)[1])), (o1, c_d, False)
    else:
        c_cut, tail, kept = c_d, g1 * math.sqrt(math.pi / abs(lo)), (o0, c_x, True)
    err += (math.exp(-_TAIL**2) * np.sum(np.abs(c_cut)) + tail) * _cut_size(*kept, lo2, lo)
    c = g0 * g1 / (4.0 * math.pi)
    top = max(p.omega0 + _SPAN * p.sigma for p in (p0, p1))
    return CrossMoments(np.conj(mm), np.conj(mp), err + c * math.log(top * abs(lo2)))


def asymptotic_moment(n, Omega, Omega_p):
    """Large-separation moments (m_minus, m_plus): a 1/(4 n^2) falloff, for
    frequencies Omega, Omega_p in units of a.

    Certified for integer n >= 10; between 5 and 10 a warning is issued; below
    5 the expansion is unreliable and a DomainError is raised, as for
    frequencies that are not positive and finite.  Where sinh(pi Omega)
    passes the double range the moments are the underflowed 0.
    """
    _check_index(n, 5, "diamond separation")
    _frequencies(Omega, Omega_p)
    if n < 10:
        warnings.warn("asymptotic moments are rough for n < 10", stacklevel=2)
    try:
        d = 4.0 * n * n * math.sinh(math.pi * Omega) * math.sinh(math.pi * Omega_p)
    except OverflowError:
        d = math.inf
    m = math.sqrt(Omega * Omega_p) / d
    return m, -m


def smeared_asymptotic_moment(spec0, spec_n, n):
    """asymptotic_moment at the packet centers times the profile integrals
    (Int dw G0)(Int dw G1) on Profile.nodes(root=True), comparable with cross_moments.

    Only packets centered at v0 = 0 are covered: the center phases e^{-i w v0}
    are not part of the asymptotic form.
    """
    p0, p1 = Profile(*spec0), Profile(*spec_n)
    if p0.v0 or p1.v0:
        raise DomainError("smeared asymptotic moments need packets centered at v0 = 0")
    _, w0, G0 = p0.nodes(root=True)
    _, w1, G1 = p1.nodes(root=True)
    norm = float(np.sum(w0 * G0).real) * float(np.sum(w1 * G1).real)
    mm, mp = asymptotic_moment(n, p0.omega0, p1.omega0)
    return mm * norm, mp * norm


def _lg_rel(x):
    """Bound on the relative error of Gamma(1 + ix) through log_gamma_1pix, the
    error of its g = 7 Lanczos phase: against 30-digit mpmath it is at most
    7.2e-16 (1 + x^2) for |x| <= 50 (4.3e-14 at |x| = 7.6, 2.0e-13 at 50)."""
    return 1.5e-15 * (1.0 + x * x)


def _lattice(x, Ky, aKy, res):
    """(m_minus, size of its terms) from the trapezoid weights x = a dW on the
    exterior nodes, the products Ky = K y and aKy = |K| |y| of the kernel
    K = Gamma(i(W' - W)) with the weights y = b dW' on the diamond nodes, and
    the residue term res = b(W)/2 on the exterior nodes.

    With a = conj(G0) A / (2 sinh pi W), b = conj(G1) / A and K(z) = Gamma(iz)
    from Im W' < 0, m_minus = (1/2pi) Int Int a(W) b(W') K(W' - W).  Each
    exterior node lies halfway between two diamond nodes, where the pole at
    W' = W sits, so the sum over W' is its principal value and the residue
    adds b(W)/2 to F = (1/2pi) Int b K dW'.  With K = Gamma(i(W + W')),
    -conj(x) for x and no residue, the same sum is m_plus.
    """
    F = Ky / (2.0 * math.pi) + res
    size = np.abs(x) @ (aKy / (2.0 * math.pi) + np.abs(res))
    return complex(x @ F), size


def _adjacent_lattice(p0, p1):
    """[(m_minus, size), (m_minus at 2s, size), (m_plus, size), (m_plus at
    2s, size), W_min] by _lattice on trapezoid lattices in t, W = t^p, with
    exterior nodes t = (j + 1/2) s halfway between diamond nodes t' = k s,
    within omega0 +- _SPAN sigma; W_min is the lowest exterior node at s.
    Where both ranges stay above omega = 0, p = 1 and s = 3 sigma / 8c.
    Where one reaches it, a and b carry a W^{-1/2} endpoint and p = 2: a dW
    and b dW' are even and smooth in t, so the sum over t >= 0 (half weight
    at t' = 0) is half the one over the line, and s = sigma / (4c
    sqrt(omega0 + _SPAN sigma)) keeps the W spacing 2ts below sigma/2.
    c = 1 + V sigma / 2pi, V the sum of the |v0|, keeps the phases
    e^{-i W v0} resolved.  For p = 1 Gamma(i(W' - W)) depends on k - j only
    (Toeplitz) and Gamma(i(W + W')) on j + k only (Hankel): N0 + N1 - 1
    Gamma values each.  For p = 2 both are full N0 x N1 matrices, so
    DomainError if N0 N1 at s exceeds _MAX_NODES.
    The four lattices (exterior at s and 2s, then diamond at s and 2s) are
    one index array k + offset, with the step h and the centre r =
    omega0^{1/p} repeated per lattice, so t = (k + offset) h, W, the
    offsets W - omega0 = (t - r)(t + r)^{p - 1}, with t - r = ((k + offset)
    - r/h) h so that rounding shifts each packet as a whole, and the
    weights p h are one expression each.  One _gamma_logs call takes log e
    on every node and Gamma(iz) on every kernel argument, one Profile._at
    call per packet the profile on its nodes, and one exp the exterior
    weights, 1/e on the diamond nodes, the residue term and the kernels;
    the sums of each step take its slices."""
    p = 1 if min(q.omega0 - _SPAN * q.sigma for q in (p0, p1)) > 0.0 else 2
    V = abs(p0.v0) + abs(p1.v0)
    c = [1.0 + V * q.sigma / (2.0 * math.pi) for q in (p0, p1)]
    s = min(3.0 * q.sigma / (8.0 * cq) if p == 1 else q.sigma / (4.0 * math.sqrt(q.omega0 + _SPAN * q.sigma) * cq)
            for q, cq in zip((p0, p1), c))
    # per lattice its first k + offset, its node count and the row repeated on its nodes:
    # (first less the nodes before it, h, r/h, r, omega0 - omega0 of the diamond packet)
    first, n, rows, hs = [], [], [], (s, 2.0 * s)
    for q, off in ((p0, 0.5), (p1, 0.0)):
        ends = (max(q.omega0 - _SPAN * q.sigma, 0.0), q.omega0 + _SPAN * q.sigma, q.omega0)
        lo, hi, r = ends if p == 1 else map(math.sqrt, ends)  # the range and the centre in t
        for h in hs:
            k0 = math.ceil(lo / h - off)
            first.append(k0 + off)
            rows.append((k0 + off - sum(n), h, r / h, r, q.omega0 - p1.omega0))
            n.append(math.floor(hi / h - off) + 1 - k0)
    if p == 2 and not n[0] * n[2] <= _MAX_NODES:
        raise DomainError(f"the adjacent kernels would hold {n[0] * n[2]} entries, over the budget of {_MAX_NODES}")
    e = n[0] + n[1]  # the exterior nodes, both steps
    kh, H, rh, r, shift = np.repeat(np.array(rows).T, n, axis=1)
    kh += np.arange(kh.size)  # k + offset, exact
    t = kh * H
    d = (kh - rh) * H  # t - r
    W, d = (t, d) if p == 1 else (t * t, d * (t + r))
    steps = ((np.s_[:n[0]], np.s_[:n[2]]), (np.s_[n[0]:], np.s_[n[2]:]))  # (exterior, diamond) per step
    # per step the (Toeplitz, Hankel) kernel arguments: for p = 1 (k - j - 1/2) h
    # from k - j = k0 - j_last up and (j + k + 1/2) h from j0 + k0 up
    if p == 1:
        z = [(np.array([[first[i + 2] - first[i] - n[i] + 1], [first[i] + first[i + 2]]])
              + np.arange(n[i] + n[i + 2] - 1)) * hs[i] for i in (0, 1)]
    else:
        z = [np.stack([W[e:][sd] - W[:e][sx, None], W[e:][sd] + W[:e][sx, None]]) for sx, sd in steps]
    le, lK = _gamma_logs(W, np.concatenate(z, axis=None))
    l0, W0 = le[:e], W[:e]
    E = np.exp(np.concatenate([l0 - np.log(2.0 * _sinh_pi(W0)), -le[e:], -l0, lK]))
    A1 = p1._at(d + shift, W)  # the diamond packet on every node
    f = 1.0 / np.sqrt(t) if p == 1 else np.where(t == 0.0, 0.5, 1.0)  # t^{p/2 - 1}, half weight at t' = 0
    ph = p * H
    x = ph[:e] * W0 * f[:e] * np.conj(p0._at(d[:e], W0)) * E[:e]
    y = ph[e:] * f[e:] * np.conj(A1[e:]) * E[e:W.size]
    res = np.conj(A1[:e]) * E[W.size:W.size + e] / (2.0 * np.sqrt(W0))
    K, kz = E[W.size + e:], z[0].size
    aK, cy, ay, xp = np.abs(K), np.conj(y), np.abs(y), -np.conj(x)
    minus, plus = [], []
    for (sx, sd), zs, sz in zip(steps, z, (np.s_[:kz], np.s_[kz:])):
        (kT, kH), (aT, aH) = K[sz].reshape(zs.shape), aK[sz].reshape(zs.shape)
        if p == 1:
            # row r of the Toeplitz kernel is kT[j.size - 1 - r:][:k.size] and of
            # the Hankel one kH[r:][:k.size], so the products with y are
            # correlations (np.correlate conjugates its second argument)
            Tp = np.correlate(kT, cy[sd])[::-1], np.correlate(aT, ay[sd])[::-1]
            Hp = np.correlate(kH, cy[sd]), np.correlate(aH, ay[sd])
        else:
            Tp, Hp = (kT @ y[sd], aT @ ay[sd]), (kH @ y[sd], aH @ ay[sd])
        minus.append(_lattice(x[sx], *Tp, res[sx]))
        plus.append(_lattice(xp[sx], *Hp, 0.0))
    return minus + plus + [W[0]]


def adjacent_moments_analytic(spec0, spec1):
    """<b0 b1> and <b0+ b1> from the adjacent-diamond closed forms.

    Both moments are double integrals over the two profiles' omega0 +- _SPAN
    sigma, where G falls below e^{-36} of its peak, with Gamma(iz) kernels;
    m_minus has a pole at W' = W.  Both are summed on the one trapezoid
    route _adjacent_lattice, uniform in t with W = t^p: p = 1 where both
    ranges stay above omega = 0 (Toeplitz and Hankel kernels), else p = 2,
    which keeps the W^{-1/2} endpoint smooth; its step s shrinks as the
    centres v0 move off 0.  est_error adds three terms: the gap to the sum
    at step 2s, the floor that the Gamma error _lg_rel sets, and the
    infrared term c ln(W_top / W_min), c = |G0(0) G1(0)| / 4pi.  Where
    G0(0) G1(0) != 0 the residue term of m_minus grows like c / W toward
    W = 0, so each moment depends on the lowest exterior node W_min like
    c ln(1 / W_min); W_top is the larger upper end omega0 + _SPAN sigma.
    The sums take log e on all their nodes and Gamma(iz) on all their
    kernel arguments, at both steps, from one log_gamma_1pix call.
    """
    p0, p1 = (Profile(*s).checked() for s in (spec0, spec1))
    (mm, size_m), (mm2, _), (mp, size_p), (mp2, _), w_min = _adjacent_lattice(p0, p1)
    # each term carries three Gamma factors, whose arguments W, W', W + W'
    # and |W' - W| stay below the sum of the packets' upper ends
    tops = [p.omega0 + _SPAN * p.sigma for p in (p0, p1)]
    rel = 3.0 * _lg_rel(sum(tops))
    c = abs(p0.amplitude(0.0) * p1.amplitude(0.0)) / (4.0 * math.pi)
    err = max(abs(mm - mm2) + rel * size_m, abs(mp - mp2) + rel * size_p)
    return CrossMoments(mm, mp, err + c * math.log(max(tops) / w_min))
