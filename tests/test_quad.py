import math

import numpy as np
import pytest

from diamondfield import _quad
from diamondfield._quad import gauss_legendre, integrate, integrate_adaptive, panel_grid, panel_nodes
from diamondfield.errors import ConvergenceError


class TestNodes:
    def test_gauss_legendre_cached(self):
        x1, w1 = gauss_legendre(16)
        x2, w2 = gauss_legendre(16)
        assert x1 is x2 and w1 is w2

    def test_order_limit(self, bounded):
        name, seconds, _ = bounded("from diamondfield._quad import _MAX_ORDER, gauss_legendre",
                                   "gauss_legendre(_MAX_ORDER + 1)")
        assert name == "DomainError" and seconds < 1.0

    def test_weights_sum_to_length(self):
        x, w = panel_nodes(-1.0, 3.0, 8)
        assert abs(np.sum(w) - 4.0) < 1e-13
        assert np.all(np.diff(x) > 0)

    def test_nodes_are_translates_of_one_panel(self):
        # the exact numbers an integrand factors over (modes._panel_sum)
        mid, off, wt = panel_grid(-275.0, 40.0, 37)
        u, w = panel_nodes(-275.0, 40.0, 37)
        assert np.array_equal(u, (mid[:, None] + off).ravel())
        assert np.array_equal(w, np.tile(wt, 37))


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

    @pytest.mark.parametrize("hi,est_freq", [(1.0, 1e9), (1e300, 1e300), (1.0, 1.25e5)])
    def test_node_budget_checked_before_each_pass(self, bounded, hi, est_freq):
        # a first pass of 7.6e9 or inf nodes; a first pass of 954,944 nodes and a second of twice that
        name, seconds, _ = bounded("from diamondfield._quad import integrate_adaptive",
                                   f"integrate_adaptive(lambda u: u, 0.0, {hi!r}, 1e-12, {est_freq!r})")
        assert name == "ConvergenceError" and seconds < 1.0

    def test_budget_exhaustion_raises(self, monkeypatch):
        # a kink the panel doubling cannot resolve to 1e-15
        monkeypatch.setattr(_quad, "_MAX_DOUBLINGS", 3)
        with pytest.raises(ConvergenceError):
            integrate_adaptive(lambda u: np.abs(u - 1.0 / 3.0) ** 0.1, 0.0, 1.0, tol=1e-15, est_freq=1.0)


class TestArrayIntegrand:
    @staticmethod
    def _counted(f, sizes):
        def g(u):
            sizes.append(u.size)
            return f(u)
        return g

    def test_components_match_scalar_calls(self):
        # cos and sin of one frequency converge at the same doubling
        cos, sin = (lambda u: np.cos(20.0 * u)), (lambda u: np.sin(20.0 * u))
        calls = [[], [], []]
        va, ea = integrate_adaptive(self._counted(cos, calls[0]), 0.0, 1.0, tol=1e-12, est_freq=20.0)
        vb, eb = integrate_adaptive(self._counted(sin, calls[1]), 0.0, 1.0, tol=1e-12, est_freq=20.0)
        both = self._counted(lambda u: np.stack([cos(u), sin(u)]), calls[2])
        val, err = integrate_adaptive(both, 0.0, 1.0, tol=1e-12, est_freq=20.0)
        assert calls[0] == calls[1] == calls[2]
        assert val[0] == va and val[1] == vb
        assert err == max(ea, eb)

    def test_slowest_component_drives_the_doubling(self):
        # default est_freq: 64 nodes first, far too few for cos(300 u)
        smooth, fast = (lambda u: np.exp(-u)), (lambda u: np.cos(300.0 * u))
        calls = [[], [], []]
        integrate_adaptive(self._counted(smooth, calls[0]), 0.0, 1.0, tol=1e-12)
        vf, ef = integrate_adaptive(self._counted(fast, calls[1]), 0.0, 1.0, tol=1e-12)
        both = self._counted(lambda u: np.stack([smooth(u), fast(u)]), calls[2])
        val, err = integrate_adaptive(both, 0.0, 1.0, tol=1e-12)
        assert len(calls[0]) < len(calls[1])
        assert calls[2] == calls[1]
        assert val[1] == vf and err == ef
        assert abs(val[0] - (1.0 - math.exp(-1.0))) < 1e-13

    def test_empty_interval_keeps_the_component_shape(self):
        val, err = integrate_adaptive(lambda u: np.stack([u, u * u]), 1.0, 1.0, tol=1e-12)
        assert val.shape == (2,) and not val.any() and err == 0.0
