import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diamondfield import specfun
from diamondfield.bogoliubov import ab_coefficients
from diamondfield.correlations import _lg_rel
from diamondfield.errors import PoleError
from diamondfield.specfun import (
    gamma_complex,
    kummer_asymptotic_sectors,
    kummer_m,
    kummer_m_vec,
    log_gamma,
    log_gamma_1pix,
)


class TestGamma:
    @given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x, y):
        z = complex(x, y)
        if abs(z) < 0.1 or abs(z + 1.0) < 0.1:
            return
        # reflection loses precision within ~0.1 of the pole line
        if x < 0.5 and abs(y) < 0.1 and abs(x - round(x)) < 0.1:
            return
        lhs = log_gamma(z + 1.0)
        rhs = log_gamma(z) + np.log(z)
        # log branches may differ by 2 pi i
        diff = lhs - rhs
        assert abs(diff.real) < 1e-10
        assert abs(math.remainder(diff.imag, 2.0 * math.pi)) < 1e-10

    @pytest.mark.parametrize("Omega", [0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    def test_modulus_identity(self, Omega):
        # |Gamma(1 + i Om)|^2 = pi Om / sinh(pi Om)
        g = gamma_complex(1.0 + 1j * Omega)
        val = abs(g) ** 2 * math.sinh(math.pi * Omega) / (math.pi * Omega)
        assert abs(val - 1.0) < 1e-12

    def test_integer_values(self):
        assert abs(gamma_complex(5.0) - 24.0) < 1e-12 * 24.0
        assert abs(gamma_complex(0.5) - math.sqrt(math.pi)) < 1e-14

    def test_reflection_region(self):
        z = -2.3 + 1.7j
        lhs = gamma_complex(z) * gamma_complex(1.0 - z)
        rhs = math.pi / np.sin(math.pi * z)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            log_gamma(0.0)
        with pytest.raises(PoleError):
            gamma_complex(-3.0)


class TestGammaOnePlusIx:
    def test_within_floor_of_mpmath(self):
        # the floor of the adjacent moments grows with |x|: the g = 7 Lanczos
        # phase is ~1e-15 off at |x| = 1, 4.3e-14 at 7.6 and 2e-13 at 50
        g = np.geomspace(1e-8, 50.0, 200)
        x = np.concatenate([np.linspace(-50.0, 50.0, 2001), g, -g, [0.0]])
        got = log_gamma_1pix(x)
        with mpmath.workdps(30):
            ref = [mpmath.loggamma(mpmath.mpc(1, xi)) for xi in x]
        for xi, v, r in zip(x, got, ref):
            d = complex(mpmath.mpc(v) - r)
            err = abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))
            assert err <= _lg_rel(xi), xi

    @pytest.mark.parametrize("x", [np.linspace(-50.0, 50.0, 200001), np.geomspace(1e-8, 50.0, 5000),
                                   -np.geomspace(1e-8, 50.0, 5000), 0.0, -0.0,
                                   # a block edge inside, a last block of one point, two dimensions
                                   np.linspace(-7.0, 9.0, 3 * specfun._LANCZOS_BLOCK // 2),
                                   np.linspace(-50.0, 50.0, 2 * specfun._LANCZOS_BLOCK + 1),
                                   np.linspace(0.0, 30.0, 7 * (specfun._LANCZOS_BLOCK // 7 + 1)).reshape(-1, 7).T])
    def test_bit_equal_to_the_term_loop(self, x):
        # the (8, block) Lanczos sums keep the bits of a running sum over k
        def looped(x):
            x = np.asarray(x, dtype=float)
            y = math.pi * np.abs(x)
            ys = np.where(y > 0.0, y, 1.0)
            re = np.where(y > 0.0, -0.5 * (ys + np.log(-np.expm1(-2.0 * ys) / (2.0 * ys))), 0.0)
            xx = x * x
            s_re = np.full(x.shape, specfun._LANCZOS_C[0])
            s_im = np.zeros(x.shape)
            for k in range(1, len(specfun._LANCZOS_C)):
                q = specfun._LANCZOS_C[k] / (k * k + xx)
                s_re = s_re + k * q
                s_im = s_im - x * q
            g = specfun._LANCZOS_G + 0.5
            im = x * (0.5 * np.log(g * g + xx) - 1.0) + 0.5 * np.arctan2(x, g) + np.arctan2(s_im, s_re)
            return re + 1j * im

        def bits(v):
            return np.ascontiguousarray(np.atleast_1d(v)).view(np.int64)

        got = log_gamma_1pix(x)
        assert np.array_equal(bits(got), bits(looped(x)))
        assert complex(np.ravel(got)[0]) == complex(np.ravel(looped(x))[0])
        for xi in np.ravel(x)[::997]:  # single points, where numpy would add pairwise
            assert np.array_equal(bits(log_gamma_1pix(xi)), bits(looped(xi)))
            assert np.array_equal(bits(log_gamma_1pix([xi])), bits(looped([xi])))

    def test_memory_stays_bounded(self, bounded):
        # 2.15M kernel arguments in one call: one (8, N) Lanczos array
        # peaked at 429 MB of RSS (x86-64, numpy 2.4), the blocks at 248 MB
        setup = "import resource\nfrom diamondfield.correlations import adjacent_moments_analytic"
        call = "adjacent_moments_analytic((1.0, 0.1, 300.0), (1.0, 0.1, -300.0))"
        kib, _, _ = bounded(setup, f"({call}, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)[1]")
        assert int(kib) < 300 * 1024

    def test_conjugate_symmetry_is_exact(self):
        x = np.geomspace(1e-3, 1e3, 61)
        assert np.array_equal(log_gamma_1pix(-x), np.conj(log_gamma_1pix(x)))

    @pytest.mark.parametrize("x", [0.0, 1e3, -1e3, 1e6, -1e6])
    def test_extreme_arguments_finite_without_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = complex(log_gamma_1pix(x))
            arr = log_gamma_1pix(np.array([x, 0.0]))
        assert math.isfinite(v.real) and math.isfinite(v.imag)
        assert np.all(np.isfinite(arr)) and arr[1] == 0.0
        # log |Gamma(1 + ix)| -> log(sqrt(2 pi |x|)) - pi |x| / 2
        if x:
            y = math.pi * abs(x)
            assert abs(v.real - 0.5 * math.log(2.0 * y) + 0.5 * y) <= 1e-15 * y


class TestKummer:
    @pytest.mark.parametrize("z", [0.5j, 3.0j, -8.0j, 40.0j, -300.0j])
    @pytest.mark.parametrize("Omega", [0.3, 1.0, 4.0])
    def test_transformation(self, Omega, z):
        # M(a, b, z) = e^z M(b - a, b, -z)
        a = 1.0 + 1j * Omega
        lhs = kummer_m(a, 2.0, z)
        rhs = np.exp(z) * kummer_m(1.0 - 1j * Omega, 2.0, -z)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("z", [0.1j, 1.0j, -5.0j, 2.0 + 3.0j])
    def test_closed_form_a1_b2(self, z):
        # M(1, 2, z) = (e^z - 1)/z
        val = kummer_m(1.0, 2.0, z)
        ref = (np.exp(z) - 1.0) / z
        assert abs(val - ref) < 1e-12 * abs(ref)

    def test_at_zero(self):
        assert kummer_m(1.0 + 1j, 2.0, 0.0) == 1.0

    def test_vectorized_matches_scalar(self):
        a = 1.0 + 0.7j
        z = np.array([0.3j, -12.0j, 55.0j, -900.0j])
        vec = kummer_m_vec(a, 2.0, z)
        for zi, vi in zip(z, vec):
            assert abs(vi - kummer_m(a, 2.0, complex(zi))) <= 1e-11 * abs(vi)

    def test_vectorized_scalar_input(self):
        v = kummer_m_vec(1.0 + 1j, 2.0, 3.0j)
        assert np.ndim(v) == 0

    def test_nonpositive_integer_b(self):
        with pytest.raises(PoleError):
            kummer_m(1.0, 0.0, 1.0j)

    def test_nonpositive_integer_b_vectorized(self):
        with pytest.raises(PoleError):
            kummer_m_vec(1.0, 0.0, [1.0j])

    def test_contiguous_recurrence_large_z(self):
        # a M(a+1, b, z) = (z + 2 a - b) M(a, b, z) + (b - a) M(a-1, b, z)
        a, b, z = 1.0 + 1.5j, 2.0, 150.0j
        lhs = a * kummer_m(a + 1.0, b, z)
        rhs = (z + 2.0 * a - b) * kummer_m(a, b, z) + (b - a) * kummer_m(a - 1.0, b, z)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    def test_asymptotic_sectors_near_largest_double(self):
        # no (s + 1) * z is formed, so |z| near the double range cannot overflow
        z = np.array([160j, 1.7e308j])
        t1, t2, e1, e2 = kummer_asymptotic_sectors(1 + 1.2j, 2.0, z)
        assert np.all(e1 <= 1e-11 * np.abs(t1)) and np.all(e2 <= 1e-11 * np.abs(np.exp(z) * t2))
        assert np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))


def _masked_sectors(a, b, z):
    """kummer_asymptotic_sectors with every lane updated under a mask until
    the slowest lane finishes: the reference for the compacted loop."""
    z = np.asarray(z, dtype=complex)
    eps = np.finfo(float).eps

    def inv_series(p, q, w):
        term = np.ones(w.shape, dtype=complex)
        total = np.ones(w.shape, dtype=complex)
        best = np.full(w.shape, np.inf)
        done = np.zeros(w.shape, dtype=bool)
        for s in range(80):
            term = term * ((p + s) * (q + s) / (s + 1.0)) / w
            mag = np.abs(term)
            done |= mag > best
            total = np.where(done, total, total + term)
            best = np.where(done, best, mag)
            done |= best <= eps * np.abs(total)
            if np.all(done):
                break
        return total, best

    s1, b1 = inv_series(a, a - b + 1.0, -z)
    s2, b2 = inv_series(b - a, 1.0 - a, z)
    pref = gamma_complex(b)
    p1 = pref * np.exp(-a * np.log(-z) - log_gamma(b - a))
    p2 = pref * np.exp((a - b) * np.log(z) - log_gamma(a))
    rel = specfun._PREF_ULPS * eps * abs(a)
    e1 = np.abs(p1) * (b1 + rel * np.abs(s1))
    e2 = np.abs(np.exp(z) * p2) * (b2 + rel * np.abs(s2))
    return p1 * s1, p2 * s2, e1, e2


class TestAsymptoticSectors:
    def test_compacted_loop_bit_identical_to_masked_loop(self, monkeypatch):
        calls, sectors = [], specfun.kummer_asymptotic_sectors

        def recording(a, b, z):
            calls.append((a, b, z))
            return sectors(a, b, z)

        monkeypatch.setattr(specfun, "kummer_asymptotic_sectors", recording)
        ab_coefficients(1.0, np.geomspace(20.0, 1e4, 400))
        assert sum(np.size(z) for _, _, z in calls) == 800  # every lane, both signs of z
        for a, b, z in calls:
            for new, ref in zip(sectors(a, b, z), _masked_sectors(a, b, z)):
                assert np.array_equal(new, ref)

    def test_scalar_argument_keeps_its_shape(self):
        t1, t2, e1, e2 = kummer_asymptotic_sectors(1 + 1.2j, 2.0, 160j)
        assert all(np.shape(x) == () for x in (t1, t2, e1, e2))
        assert t1 == _masked_sectors(1 + 1.2j, 2.0, 160j)[0]


class TestArbitraryPrecision:
    @pytest.mark.parametrize("Omega", [0.3, 1.0, 2.85, 4.0, 10.0, 50.0])
    def test_capped_digits_match_high_precision(self, Omega):
        # 80 digits agreed with 60 + 0.5|z| digits on every lane checked
        # (|z| up to 4000); the latter takes seconds a lane at kappa = 1000
        a = 1.0 + 1j * Omega
        for kappa in (12.95, 40.0, 154.15, 500.0, 1000.0):
            for z in (4j * kappa, -4j * kappa):
                with mpmath.workdps(80):
                    ref = complex(mpmath.hyp1f1(a, 2, z))
                assert abs(specfun._kummer_mp(a, 2.0, z) - ref) <= 4e-16 * abs(ref)

    def test_digits_capped_at_40(self, monkeypatch):
        digits, workdps = [], mpmath.workdps

        def recording(dps):
            digits.append(dps)
            return workdps(dps)

        monkeypatch.setattr(mpmath, "workdps", recording)
        r = np.array([1.0, 12.0, 30.0, 31.0, 616.6, 4000.0])
        for z in 1j * r:
            specfun._kummer_mp(1.0 + 1j, 2.0, z)
        # lanes with |z| <= 30 keep 25 + 0.5|z| digits
        assert digits == [25, 31, 40, 40, 40, 40]

    def test_package_import_leaves_mpmath_unloaded(self):
        # only the Kummer fallback imports mpmath, on its first call
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, diamondfield, diamondfield.cli; print('mpmath' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
