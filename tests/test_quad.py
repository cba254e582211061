import math

import numpy as np
import pytest

from diamondfield import _quad, detector, modes
from diamondfield._quad import (
    gauss_legendre,
    integrate_adaptive,
    integrate_trapezoid,
    panel_grid,
    panel_nodes,
)
from diamondfield.correlations import cross_moments
from diamondfield.detector import response_rates
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
        # the exact numbers an integrand factors over (bogoliubov._trapezoid)
        mid, off, wt = panel_grid(-275.0, 40.0, 37)
        u, w = panel_nodes(-275.0, 40.0, 37)
        assert np.array_equal(u, (mid[:, None] + off).ravel())
        assert np.array_equal(w, np.tile(wt, 37))


class TestIntegrate:
    @pytest.mark.parametrize("omega", [1.0, 20.0, 200.0])
    def test_oscillatory(self, omega):
        val, err = integrate_adaptive(
            lambda u, *grid: (np.cos(omega * u), 0.0), 0.0, 1.0, tol=1e-12, est_freq=omega
        )
        ref = math.sin(omega) / omega
        assert abs(val - ref) < 1e-11
        assert abs(val - ref) < 10 * err + 1e-12

    def test_gaussian(self):
        val, _ = integrate_adaptive(
            lambda u, *grid: (np.exp(-(u**2)), 0.0), -8.0, 8.0, tol=1e-13, est_freq=1.0
        )
        assert abs(val - math.sqrt(math.pi)) < 1e-12

    def test_complex_integrand(self):
        val, _ = integrate_adaptive(
            lambda u, *grid: (np.exp(1j * 5.0 * u), 0.0), 0.0, 2.0, tol=1e-12, est_freq=5.0
        )
        ref = (np.exp(10j) - 1.0) / 5j
        assert abs(val - ref) < 1e-11

    def test_deterministic(self):
        f = lambda u, *grid: (np.sin(37.0 * u) / (1.0 + u * u), 0.0)
        a = integrate_adaptive(f, 0.0, 4.0, tol=1e-11, est_freq=37.0)
        b = integrate_adaptive(f, 0.0, 4.0, tol=1e-11, est_freq=37.0)
        assert a == b

    def test_nan_integrand_stops_at_first_estimate(self):
        sizes = []

        def f(u, *grid):
            sizes.append(u.size)
            return np.full(u.shape, np.nan), 0.0

        with pytest.raises(ConvergenceError):
            integrate_adaptive(f, 0.0, 1.0, tol=1e-10)
        assert len(sizes) <= 2

    @pytest.mark.parametrize("hi,est_freq", [(1.0, 1e9), (1e300, 1e300), (1.0, 1.25e5)])
    def test_node_budget_checked_before_each_pass(self, bounded, hi, est_freq):
        # a first pass of 7.6e9 or inf nodes; a first pass of 954,944 nodes and a second of twice that
        name, seconds, _ = bounded("from diamondfield._quad import integrate_adaptive",
                                   f"integrate_adaptive(lambda u, *grid: (u, 0.0), 0.0, {hi!r}, 1e-12, {est_freq!r})")
        assert name == "ConvergenceError" and seconds < 1.0

    def test_tolerance_below_rounding_floor_stops_at_the_floor(self):
        # tol = 1e-30 doubled until the node budget raised ConvergenceError
        # (10 passes); the doubling now ends where the difference reaches
        # the rounding floor eps sum|f w|
        sizes = []

        def f(u, *grid):
            sizes.append(u.size)
            return np.sin(37.0 * u) / (1.0 + u * u), 0.0

        _, err = integrate_adaptive(f, 0.0, 4.0, tol=1e-30, est_freq=37.0)
        assert len(sizes) <= 4 and err <= 1e-14

    @pytest.mark.parametrize("est_freq", [1.0, 37.0, 300.0])
    def test_est_error_carries_the_rounding_floor(self, est_freq):
        # two passes that round to the same sum read est_error 0 while the
        # sum was 2.2e-16 from arctan 4 (at est_freq 37 and 300)
        val, err = integrate_adaptive(lambda u, *grid: (1.0 / (1.0 + u * u), 0.0), 0.0, 4.0, tol=1e-30, est_freq=est_freq)
        assert abs(val - math.atan(4.0)) <= err

    def test_budget_exhaustion_raises(self, monkeypatch):
        # a kink the panel doubling cannot resolve to 1e-15
        monkeypatch.setattr(_quad, "_MAX_DOUBLINGS", 3)
        with pytest.raises(ConvergenceError):
            integrate_adaptive(lambda u, *grid: (np.abs(u - 1.0 / 3.0) ** 0.1, 0.0), 0.0, 1.0, tol=1e-15, est_freq=1.0)


class TestArrayIntegrand:
    @staticmethod
    def _counted(f, sizes):
        def g(u, *grid):
            sizes.append(u.size)
            return f(u), 0.0
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
        val, err = integrate_adaptive(lambda u, *grid: (np.stack([u, u * u]), 0.0), 1.0, 1.0, tol=1e-12)
        assert val.shape == (2,) and not val.any() and err == 0.0


def _sech2(v, start, h):
    return np.cosh(v / 2.0) ** -2 * np.exp(-1.3j * v), 0.0


SECH2 = 4.0 * math.pi * 1.3 / math.sinh(math.pi * 1.3)  # Int sech^2(v/2) e^{-1.3 i v} dv


class TestTrapezoid:
    def test_geometric_convergence_in_a_strip(self):
        # sech^2(v/2) has poles at +-i pi and is ~1e-17 at |v| = 40
        val, err = integrate_trapezoid(_sech2, -40.0, 40.0, 1e-12, 0.5)
        assert abs(val - SECH2) <= err <= 1e-12

    def test_each_node_evaluated_once(self):
        # T_{h/2} = T_h / 2 + (h/2) sum f(midpoints): one call on the 2N + 1
        # nodes of the first two levels, then only the new midpoints, which
        # together make the final uniform grid
        grids = []

        def f(v, start, h):
            grids.append((v, start, h))
            assert np.array_equal(v, start + h * np.arange(v.size))
            return _sech2(v, start, h)

        integrate_trapezoid(f, -40.0, 40.0, 1e-30, 2.0)
        assert grids[0][0].size == 81 and grids[0][1:] == (-40.0, 1.0)
        assert [g[0].size for g in grids] == [81] + [80 << i for i in range(len(grids) - 1)]
        nodes = np.sort(np.concatenate([g[0] for g in grids]))
        h = grids[-1][2] / 2.0
        assert np.allclose(nodes, -40.0 + h * np.arange(nodes.size), rtol=0.0, atol=1e-12)
        assert nodes.size == 80.0 / h + 1

    def test_first_two_levels_in_one_call(self):
        # 36 intervals of step 0.5 over [-9, 9]: one call on the 73 nodes of
        # step 0.25, whose even nodes give T_0.5 and all nodes T_0.25, and
        # the first comparison ends it
        calls = []

        def f(v, start, h):
            calls.append((v.size, start, h))
            return np.exp(-v * v), 0.0

        val, err = integrate_trapezoid(f, -9.0, 9.0, 1e-12, 0.5)
        assert calls == [(73, -9.0, 0.25)]
        # the two separate sums: T_0.5 on its own grid, then its midpoints
        v, mid = -9.0 + 0.5 * np.arange(37), -8.75 + 0.5 * np.arange(36)
        coarse = 0.5 * (np.sum(np.exp(-v * v)) - np.exp(-81.0))
        fine = 0.5 * coarse + 0.25 * np.sum(np.exp(-mid * mid))
        assert abs(val - fine) <= _quad._EPS * 0.25 * (np.sum(np.exp(-v * v)) + np.sum(np.exp(-mid * mid)))
        assert abs(val - math.sqrt(math.pi)) <= err

    def test_merged_grid_over_budget_fails_before_any_call(self, monkeypatch):
        # 50 intervals of step 1 fit a budget of 100 nodes, but the first call
        # would take 2 * 50 + 1
        monkeypatch.setattr(_quad, "_MAX_NODES", 100)
        calls = []
        with pytest.raises(ConvergenceError, match="a trapezoid grid of 101 nodes exceeds the budget of 100 nodes"):
            integrate_trapezoid(lambda v, a, h: calls.append(v.size) or (np.sin(v), 0.0), 0.0, 50.0, 1e-30, 1.0)
        assert calls == []

    @pytest.mark.parametrize("run, integrals", [
        *(pytest.param(lambda n=n: cross_moments((1.0, 0.02), (1.0, 0.02), n), 1, id=f"cross_moments-{n}")
          for n in (2, 10, 20)),
        pytest.param(lambda: response_rates([0.5, 1.0, 2.0]), 3, id="response_rates"),
    ])
    def test_one_integrand_call_per_integral(self, run, integrals, monkeypatch):
        # the rapidity integral at n >= 2 and the detector rate at each
        # default energy stop at the first comparison, so each takes one
        # integrand call
        calls = []

        def counting(f, *args):
            calls.append(0)

            def counted(*grid):
                calls[-1] += 1
                return f(*grid)

            return integrate_trapezoid(counted, *args)

        monkeypatch.setattr(modes, "integrate_trapezoid", counting)
        monkeypatch.setattr(detector, "integrate_trapezoid", counting)
        run()
        assert calls == [1] * integrals

    def test_components_halve_together(self):
        val, err = integrate_trapezoid(lambda v, a, h: (np.stack([np.exp(-v * v), v * v * np.exp(-v * v)]), 0.0),
                                       -9.0, 9.0, 1e-14, 1.0)
        assert val.shape == (2,)
        assert abs(val[0] - math.sqrt(math.pi)) <= err and abs(val[1] - math.sqrt(math.pi) / 2.0) <= err

    def test_even_integrand_on_the_half_line(self):
        # half weight at the end d = 0: half of the whole-line sum
        full, _ = integrate_trapezoid(lambda v, a, h: (np.exp(-v * v), 0.0), -9.0, 9.0, 1e-14, 0.5)
        half, err = integrate_trapezoid(lambda v, a, h: (np.exp(-v * v), 0.0), 0.0, 9.0, 1e-14, 0.5)
        assert abs(half - full / 2.0) <= 1e-16 and abs(half - math.sqrt(math.pi) / 2.0) <= err

    def test_rounding_floor_ends_an_unreachable_tolerance(self):
        val, err = integrate_trapezoid(_sech2, -40.0, 40.0, 1e-30, 0.5)
        assert abs(val - SECH2) <= err <= 1e-14

    def test_empty_and_reversed_intervals(self):
        val, err = integrate_trapezoid(lambda v, a, h: (np.stack([v, v * v]), 0.0), 1.0, 1.0, 1e-12, 0.5)
        assert val.shape == (2,) and not val.any() and err == 0.0
        fwd, _ = integrate_trapezoid(_sech2, -40.0, 40.0, 1e-12, 0.5)
        back, _ = integrate_trapezoid(_sech2, 40.0, -40.0, 1e-12, 0.5)
        assert abs(fwd + back) <= 1e-15

    def test_deterministic(self):
        assert integrate_trapezoid(_sech2, -40.0, 40.0, 1e-12, 0.3) == integrate_trapezoid(_sech2, -40.0, 40.0,
                                                                                          1e-12, 0.3)

    @pytest.mark.parametrize("hi,step", [(1e300, 1.0), (1.0, 1e-9), (2**19, 1.0)])
    def test_grid_budget_checked_before_each_level(self, bounded, hi, step):
        # first calls of 2e300 and 2e9 nodes; 2^19 intervals, whose first
        # grid (524,289 nodes) alone would fit the budget and whose first
        # call with its midpoints (1,048,577) does not
        name, seconds, _ = bounded("from diamondfield._quad import integrate_trapezoid\n"
                                   "import numpy as np",
                                   f"integrate_trapezoid(lambda v, a, h: (np.sin(v), 0.0), 0.0, {hi!r}, "
                                   f"1e-30, {step!r})")
        assert name == "ConvergenceError" and seconds < 1.0

    def test_budget_error_names_the_grid(self):
        with pytest.raises(ConvergenceError, match="a trapezoid grid of 1.04858e\\+06 nodes exceeds the budget"):
            integrate_trapezoid(lambda v, a, h: (np.sin(v), 0.0), 0.0, 2.0**19, 1e-30, 1.0)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(ConvergenceError):
            integrate_trapezoid(lambda v, a, h: (np.full(v.shape, np.nan), 0.0), 0.0, 1.0, 1e-10, 0.5)


RULES = {
    "gauss-legendre": lambda f, lo, hi, tol: integrate_adaptive(f, lo, hi, tol),
    "trapezoid": lambda f, lo, hi, tol: integrate_trapezoid(f, lo, hi, tol, 0.5),
}


class TestContract:
    """Both rules call f(nodes, *grid), take back (y, s) and share one stop rule."""

    @pytest.mark.parametrize("rule", RULES)
    def test_node_error_bound_enters_the_stop_rule(self, rule, monkeypatch):
        # nodes off by up to 1e-9: with that bound per node the refinement
        # ends and est_error covers S = 18e-9 and the sum's error; without it
        # no refinement reaches 1e-12
        monkeypatch.setattr(_quad, "_MAX_DOUBLINGS", 5)

        def noisy(bound):
            return lambda v, *grid: (np.exp(-v * v) + 1e-9 * np.cos(1e5 * v), bound)

        val, err = RULES[rule](noisy(1e-9), -9.0, 9.0, 1e-12)
        assert abs(val - math.sqrt(math.pi)) <= err <= 1e-7
        assert err >= 18e-9 * (1.0 - 1e-12)
        with pytest.raises(ConvergenceError):
            RULES[rule](noisy(0.0), -9.0, 9.0, 1e-12)

    def test_panel_grid_is_handed_to_the_integrand(self):
        # f(u, mid, off): u = mid[p] + off[i], panel by panel, as panel_grid lays them out
        seen = []

        def f(u, mid, off):
            seen.append((u.size, mid.size))
            assert np.array_equal(u, np.add.outer(mid, off).ravel())
            assert np.array_equal(off, panel_grid(-1.0, 2.0, mid.size)[1])
            return np.exp(u), 0.0

        val, err = integrate_adaptive(f, -1.0, 2.0, 1e-12)
        assert abs(val - (math.exp(2.0) - math.exp(-1.0))) <= err
        assert [n for n, _ in seen] == [16 * p for _, p in seen]
