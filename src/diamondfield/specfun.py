"""Complex special functions: Gamma and Kummer's confluent hypergeometric M.

Only the slices actually needed by the analytic mode-overlap formulas are
certified: Gamma on moderate arguments (|Im z| <= 50, 0.1 <= |z| <= 50),
Gamma(1 + ix) for real |x| <= 50 through log_gamma_1pix (relative error at
most 7.2e-16 (1 + x^2) against 30-digit mpmath, tested on [-50, 50] and on
geometric grids down to |x| = 1e-8), and M(a, b, z) for b = 2,
a = 1 +- i*Omega, z purely imaginary.  Accuracy is enforced by identity
self-tests (reflection, recurrence, Kummer transform) rather than by
comparison with an external library.  mpmath is imported only by the
arbitrary-precision Kummer fallback, on its first call.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

# Lanczos approximation, g = 7, 9 coefficients (~1e-13 relative accuracy).
_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)

_LOG_SQRT_2PI = 0.9189385332046727  # log(sqrt(2*pi))
_LANCZOS_BLOCK = 1 << 14  # points per block of the Lanczos sum of log_gamma_1pix
# the partial fractions k = 1..8 of log_gamma_1pix's Lanczos sum, as columns: k, k^2, c_k
_LANCZOS_K = np.arange(1.0, len(_LANCZOS_C))[:, None]
_LANCZOS_K2, _LANCZOS_CK = _LANCZOS_K * _LANCZOS_K, _LANCZOS_C[1:, None]

_ASYM_REL_TOL = 1e-11  # error of an asymptotic lane, relative to |M|, that certifies it
_PREF_ULPS = 64.0  # rounding of a sector prefactor, in eps |a|: 5 to 30 measured for |Omega| <= 50


def _lanczos_loggamma(z):
    """log Gamma for Re z >= 0.5, vectorized, via the Lanczos series."""
    z = np.asarray(z, dtype=complex)
    zm1 = z - 1.0
    s = np.full(z.shape, _LANCZOS_C[0], dtype=complex)
    for i in range(1, len(_LANCZOS_C)):
        s = s + _LANCZOS_C[i] / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(s)


def log_gamma(z):
    """Principal branch of log Gamma(z), up to multiples of 2*pi*i.

    Uses the reflection formula for Re z < 0.5.  Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)

    left = z.real < 0.5
    out = np.empty(z.shape, dtype=complex)
    if np.any(~left):
        out[~left] = _lanczos_loggamma(z[~left])
    if np.any(left):
        zl = z[left]
        poles = (zl.imag == 0.0) & (zl.real == np.round(zl.real)) & (zl.real <= 0.0)
        if np.any(poles):
            raise PoleError("Gamma pole at nonpositive integer argument")
        # log Gamma(z) = log(pi) - log(sin(pi z)) - log Gamma(1 - z)
        out[left] = (
            math.log(math.pi) - np.log(np.sin(np.pi * zl)) - _lanczos_loggamma(1.0 - zl)
        )
    return out[0] if scalar else out


def log_gamma_1pix(x):
    """log Gamma(1 + ix) for real x, vectorized; the imaginary part is the
    phase of the Lanczos series up to a multiple of 2 pi.

    The real part is the closed form log |Gamma(1 + ix)| = (1/2) log(y / sinh y)
    with y = pi |x| (DLMF 5.4.3), written so that it neither cancels near 0 nor
    overflows at large y.  The phase sums the Lanczos partial fractions
    c_k / (k + ix) = c_k (k - ix) / (k^2 + x^2) in real arithmetic, with no
    loop over k: the terms of _LANCZOS_BLOCK points at a time form one
    (8, block) array, reduced along its first axis by subtraction, which numpy
    runs row after row (k = 1..8) for every block, one point included; an add
    reduction would sum the terms of a single point pairwise.  The blocks
    bound the temporaries at any number of points.
    """
    x = np.asarray(x, dtype=float)
    y = math.pi * np.abs(x)
    ys = np.where(y > 0.0, y, 1.0)  # y = 0 is the limit 0 of the real part
    re = np.where(y > 0.0, -0.5 * (ys + np.log(-np.expm1(-2.0 * ys) / (2.0 * ys))), 0.0)
    xx = x * x
    # s_re = c_0 + sum k q and s_im = -sum x q, with q = c_k / (k^2 + x^2)
    flat, flat2, s_re, s_im = x.ravel(), xx.ravel(), np.empty(x.size), np.empty(x.size)
    for lo in range(0, x.size, _LANCZOS_BLOCK):
        block = slice(lo, lo + _LANCZOS_BLOCK)
        q = _LANCZOS_K2 + flat2[block]
        np.divide(_LANCZOS_CK, q, out=q)
        np.subtract.reduce(-_LANCZOS_K * q, axis=0, initial=_LANCZOS_C[0], out=s_re[block])
        np.subtract.reduce(np.multiply(flat[block], q, out=q), axis=0, initial=0.0, out=s_im[block])
    s_re, s_im = s_re.reshape(x.shape), s_im.reshape(x.shape)
    # t = ix + g + 1/2: Im[(ix + 1/2) log t - t + log s]
    g = _LANCZOS_G + 0.5
    im = x * (0.5 * np.log(g * g + xx) - 1.0) + 0.5 * np.arctan2(x, g) + np.arctan2(s_im, s_re)
    return re + 1j * im


def gamma_complex(z):
    """Gamma(z) for complex z, vectorized.

    Raises DomainError unless every z is finite, PoleError at nonpositive
    integers and OverflowError when the result exceeds the double-precision
    range.
    """
    if not np.all(np.isfinite(z)):
        raise DomainError("gamma_complex needs finite arguments")
    lg = log_gamma(z)
    re = np.atleast_1d(np.asarray(lg, dtype=complex)).real
    if np.any(re > 709.0):
        raise OverflowError("Gamma(z) overflows double precision")
    out = np.exp(lg)
    if not np.all(np.isfinite(np.atleast_1d(out))):
        raise ConvergenceError("non-finite value in gamma_complex")
    return out


def _kummer_taylor(a, b, z):
    """Plain Taylor series; reliable only while cancellation ~ exp(|z|) is benign."""
    z = np.asarray(z, dtype=complex)
    term = np.ones(z.shape, dtype=complex)
    total = np.ones(z.shape, dtype=complex)
    comp = np.zeros(z.shape, dtype=complex)  # Kahan compensation
    for n in range(400):
        term = term * ((a + n) / ((b + n) * (n + 1.0))) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            return total
    raise ConvergenceError("Kummer Taylor series did not converge")


def kummer_asymptotic_sectors(a, b, z):
    """Large-|z| expansion of M(a, b, z), the two sectors kept separate.

        M(a,b,z) ~ Gamma(b) [ (-z)^(-a)/Gamma(b-a) * S1  +  e^z z^(a-b)/Gamma(a) * S2 ]

    with S1, S2 the inverse-power series, each summed until its terms fall
    below the double resolution of its sum or grow.  Returns (t1, t2, e1, e2),
    M ~ t1 + exp(z) t2, where e1, e2 bound the errors of t1, exp(z) t2: the
    smallest term times the prefactor, plus _PREF_ULPS eps |a| of the sector
    for the prefactor's rounding.
    """
    z = np.asarray(z, dtype=complex)
    eps = np.finfo(float).eps

    def inv_series(p, q, w):  # (sum, size of its last term)
        shape, w = w.shape, w.ravel()
        total = np.ones(w.shape, dtype=complex)
        best = np.full(w.shape, np.inf)
        live = np.arange(w.size)  # lanes still summing, with their last term
        term = total.copy()
        for s in range(80):
            # dividing by w last keeps (s + 1) * w from overflowing at huge |w|
            term = term * ((p + s) * (q + s) / (s + 1.0)) / w[live]
            mag = np.abs(term)
            add = ~(mag > best[live])  # else a divergent tail from here on
            live, term = live[add], term[add]
            total[live] += term
            best[live] = mag[add]
            more = ~(best[live] <= eps * np.abs(total[live]))
            live, term = live[more], term[more]
            if not live.size:
                break
        return total.reshape(shape), best.reshape(shape)

    s1, b1 = inv_series(a, a - b + 1.0, -z)
    s2, b2 = inv_series(b - a, 1.0 - a, z)
    pref = gamma_complex(b)
    p1 = pref * np.exp(-a * np.log(-z) - log_gamma(b - a))
    p2 = pref * np.exp((a - b) * np.log(z) - log_gamma(a))
    rel = _PREF_ULPS * eps * abs(a)
    e1 = np.abs(p1) * (b1 + rel * np.abs(s1))
    e2 = np.abs(np.exp(z) * p2) * (b2 + rel * np.abs(s2))
    return p1 * s1, p2 * s2, e1, e2


def _kummer_mp(a, b, z):
    """Arbitrary-precision fallback (adaptive series, certified by mpmath).
    hyp1f1 raises its own precision where its series cancels, so the working
    precision is capped: 40 digits gave the same doubles as 80 up to |z| = 4e3."""
    import mpmath

    dps = min(25 + int(0.5 * abs(z)), 40)
    with mpmath.workdps(dps):
        v = mpmath.hyp1f1(mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(z))
        return complex(v)


def kummer_m(a, b, z):
    """Kummer's M(a, b, z) at one point; see kummer_m_vec."""
    return complex(kummer_m_vec(a, b, z))


def kummer_m_vec(a, b, z):
    """Kummer's M(a, b, z) for complex a, z and b not a nonpositive integer,
    vectorized over an array of z at fixed (a, b).

    Certified for b = 2, a = 1 +- i*Omega (|Omega| <= 50) and purely
    imaginary z with |z| <= 4e3; other arguments are evaluated on a
    best-effort basis through the same machinery.  Splits z by magnitude:
    Taylor sum for small |z|, two-sector asymptotic series for large |z|,
    arbitrary-precision evaluation in the band between (where double
    precision cannot certify the 1e-10 contract) and for asymptotic lanes
    whose error exceeds _ASYM_REL_TOL |M|, as where the sectors cancel.
    Non-finite a, b or z raise DomainError before any evaluation.
    """
    a = complex(a)
    b = complex(b)
    z_in = np.asarray(z, dtype=complex)
    if not (cmath.isfinite(a) and cmath.isfinite(b) and np.all(np.isfinite(z_in))):
        raise DomainError("Kummer M needs finite a, b and z")
    if b.imag == 0.0 and b.real == round(b.real) and b.real <= 0.0:
        raise PoleError("M(a, b, z) undefined at nonpositive integer b")
    z = np.atleast_1d(z_in).ravel()
    out = np.empty(z.shape, dtype=complex)
    r = np.abs(z)

    # Cancellation in the double-precision Taylor sum grows like exp(|z|)
    # and, for large |a|, like exp(2 sqrt(|a z|)); beyond these the 1e-10
    # contract is not met in doubles.  From |z| = 20 on the asymptotic series
    # is worth trying; its per-lane certification rejects the rest.
    small = (r <= 10.0) & (abs(a) * r <= 30.0)
    large = ~small & (r >= 20.0)
    band = ~small & ~large

    if np.any(small):
        out[small] = _kummer_taylor(a, b, z[small])  # M(a, b, 0) = 1 exactly
    if np.any(large):
        idx = np.where(large)[0]
        t1, t2, e1, e2 = kummer_asymptotic_sectors(a, b, z[large])
        val = t1 + np.exp(z[large]) * t2
        ok = e1 + e2 <= _ASYM_REL_TOL * np.abs(val)
        for j in np.where(~ok)[0]:
            val[j] = _kummer_mp(a, b, z.flat[idx[j]])
        out[large] = val
    if np.any(band):
        out[band] = [_kummer_mp(a, b, zz) for zz in z[band]]
    return out.reshape(z_in.shape) if z_in.ndim else out[0]
