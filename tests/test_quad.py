import math

import numpy as np
import pytest

from diamondfield._quad import gauss_legendre, integrate, integrate_adaptive, panel_nodes
from diamondfield.errors import ConvergenceError


class TestNodes:
    def test_gauss_legendre_cached(self):
        x1, w1 = gauss_legendre(16)
        x2, w2 = gauss_legendre(16)
        assert x1 is x2 and w1 is w2

    def test_weights_sum_to_length(self):
        x, w = panel_nodes(-1.0, 3.0, 8)
        assert abs(np.sum(w) - 4.0) < 1e-13
        assert np.all(np.diff(x) > 0)


class TestIntegrate:
    def test_polynomial_exact(self):
        val = integrate(lambda u: u**3 - 2 * u, 0.0, 2.0, n_panels=2)
        assert abs(val - 0.0) < 1e-13

    @pytest.mark.parametrize("omega", [1.0, 20.0, 200.0])
    def test_oscillatory(self, omega):
        val, err = integrate_adaptive(
            lambda u: np.cos(omega * u), 0.0, 1.0, tol=1e-12, est_freq=omega
        )
        ref = math.sin(omega) / omega
        assert abs(val - ref) < 1e-11
        assert abs(val - ref) < 10 * err + 1e-12

    def test_gaussian(self):
        val, _ = integrate_adaptive(
            lambda u: np.exp(-(u**2)), -8.0, 8.0, tol=1e-13, est_freq=1.0
        )
        assert abs(val - math.sqrt(math.pi)) < 1e-12

    def test_complex_integrand(self):
        val, _ = integrate_adaptive(
            lambda u: np.exp(1j * 5.0 * u), 0.0, 2.0, tol=1e-12, est_freq=5.0
        )
        ref = (np.exp(10j) - 1.0) / 5j
        assert abs(val - ref) < 1e-11

    def test_deterministic(self):
        f = lambda u: np.sin(37.0 * u) / (1.0 + u * u)
        a = integrate_adaptive(f, 0.0, 4.0, tol=1e-11, est_freq=37.0)
        b = integrate_adaptive(f, 0.0, 4.0, tol=1e-11, est_freq=37.0)
        assert a == b

    def test_nan_integrand_stops_at_first_estimate(self):
        sizes = []

        def f(u):
            sizes.append(u.size)
            return np.full(u.shape, np.nan)

        with pytest.raises(ConvergenceError):
            integrate_adaptive(f, 0.0, 1.0, tol=1e-10)
        assert len(sizes) <= 2

    def test_budget_exhaustion_raises(self):
        # a kink the panel doubling cannot resolve to 1e-15
        with pytest.raises(ConvergenceError):
            integrate_adaptive(
                lambda u: np.abs(u - 1.0 / 3.0) ** 0.1,
                0.0, 1.0, tol=1e-15, est_freq=1.0, max_doublings=3,
            )
