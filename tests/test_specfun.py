import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diamondfield.errors import PoleError
from diamondfield.specfun import (
    gamma_complex,
    kummer_asymptotic_sectors,
    kummer_m,
    kummer_m_vec,
    log_gamma,
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
