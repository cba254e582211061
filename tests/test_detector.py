import math

import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy import special

from diamondfield import detector
from diamondfield._quad import integrate_adaptive
from diamondfield.detector import (
    _sinh2_deficit,
    _vacuum_window_rate,
    accelerated_wightman,
    detailed_balance,
    expected_rate,
    fit_temperature,
    identity_residual,
    response_rate,
    response_rates,
    scaled_static_wightman,
    thermal_wightman,
    wightman_minkowski,
)
from diamondfield.errors import ConvergenceError, DomainError


class TestWightman:
    def test_minkowski_timelike(self):
        val = wightman_minkowski(2.0, 0.0)
        assert abs(val + 1.0 / (16.0 * math.pi**2)) < 1e-15

    def test_minkowski_eps_moves_singularity(self):
        val = wightman_minkowski(0.0, 0.0, eps=1e-3)
        assert np.isfinite(val)

    def test_identity_grid(self):
        res = identity_residual(np.linspace(-3.0, 3.0, 20))
        assert res <= 1e-10

    def test_forms_agree_pointwise(self):
        lhs = scaled_static_wightman(0.7, -0.4)
        mid = accelerated_wightman(0.7, -0.4)
        ref = thermal_wightman(1.1)
        assert abs(lhs - ref) < 1e-12 * abs(ref)
        assert abs(mid - ref) < 1e-12 * abs(ref)

    def test_thermal_antiperiodicity_modulus(self):
        # |W(d)| = |W(-d)| and period 2 pi i / a in imaginary time
        d = 0.9
        assert abs(abs(thermal_wightman(d)) - abs(thermal_wightman(-d))) < 1e-16
        shifted = thermal_wightman(d - 2j * math.pi)
        assert abs(shifted - thermal_wightman(d)) < 1e-12 * abs(shifted)


class TestResponse:
    @pytest.mark.parametrize("E", [0.5, 1.0, 2.0])
    def test_rate_matches_thermal(self, E):
        res = response_rate(E)
        assert abs(res.value - expected_rate(E)) <= 0.02 * expected_rate(E)

    @pytest.mark.parametrize("E", [0.5, 1.0, 2.0])
    def test_detailed_balance(self, E):
        ratio, expected = detailed_balance(E)
        assert abs(ratio - expected) <= 0.02 * expected

    def test_eps_halving_stable(self):
        r1 = response_rate(1.0, eps=1e-8).value
        r2 = response_rate(1.0, eps=5e-9).value
        assert abs(r1 - r2) <= 0.02 * abs(r1)

    def test_deexcitation_dominates(self):
        assert response_rate(-1.0).value > response_rate(1.0).value

    def test_window_must_be_positive(self):
        with pytest.raises(DomainError):
            response_rate(1.0, window_time=0.0)

    @pytest.mark.parametrize("expr", [
        "response_rates(1.0, 1e-162)", "response_rates(1.0, 1e-170)", "response_rates(1.0, 1e-300)",
        "response_rates(1.0, 1e300)", "response_rates(1.0, math.inf)",
        "response_rate(math.nan)", "response_rate(math.inf)", "response_rates([1.0, -math.inf])",
    ])
    def test_outside_the_domain_fails_fast(self, expr, bounded):
        # T^2 underflowed to 0 at the window 1e-162 (ZeroDivisionError); at
        # 1e-170 and 1e-300 a warning ended in a NaN ConvergenceError, and at
        # 1e300 and inf T^2 overflowed with a warning.  A NaN energy ended in
        # ConvergenceError after the quadrature, an infinite one in
        # ZeroDivisionError
        name, seconds, err = bounded("import math\nfrom diamondfield.detector import response_rate, response_rates",
                                     expr)
        assert name == "DomainError" and seconds < 1.0
        assert "Warning" not in err

    @pytest.mark.parametrize("expr", [
        "response_rates([0.5, 1.0, 2.0], 80.0, 0.01)", "response_rates(1.0, 80.0, 0.1)",
        "response_rates(1.0, 80.0, 1e10)", "response_rates(1.0, 80.0, 1e155)",
        "response_rates(1.0, 1000.0, 1e-3)", "response_rates(1.0, 1.0, 0.2)",
        "response_rates(1.0, 80.0, -1e-9)", "response_rates(1.0, 80.0, math.nan)",
    ])
    def test_eps_outside_the_domain_fails_fast(self, expr, bounded):
        # eps = 0.01 to 1e10 at T = 80 and 1e-3 at T = 1000 ended in a
        # ConvergenceError past the node budget, 1e155 also warned of an overflow
        name, seconds, err = bounded("import math\nfrom diamondfield.detector import response_rates", expr)
        assert name == "DomainError" and seconds < 1.0
        assert "Warning" not in err

    @pytest.mark.parametrize("T", [0.01, 1.0, 10.0, 80.0, 1000.0, 1e4])
    def test_eps_domain_edge_converges(self, T):
        eps = min(detector._EPS[0], detector._EPS[1] / (T * T))
        for up, down in response_rates(np.array([0.01, 0.5, 1.0, 2.0, 5.0]), T, eps):
            assert math.isfinite(up.value) and math.isfinite(down.value)

    def test_est_error_grows_with_eps(self):
        # eps makes the integrand's imaginary part odd in d; est_error carries it
        grid = np.array([0.5, 1.0, 2.0])
        small, large = (max(r.est_error for pair in response_rates(grid, 80.0, eps) for r in pair)
                        for eps in (1e-4, 3e-3))
        assert 10.0 * small <= large <= 100.0 * small

    def test_domain_edges_are_in_the_domain(self):
        lo, _ = response_rates(1.0, detector._WINDOW[0])
        assert math.isfinite(lo.value) and lo.value > lo.est_error
        # eps = 0, the one eps in the domain at every window (20 / T^2 is 2e-299 here)
        with pytest.raises(ConvergenceError, match="exceeds the budget"):
            response_rates(1.0, detector._WINDOW[1], 0.0)

    def test_fit_temperature(self):
        Es = [0.5, 1.0, 2.0]
        rates = [[response_rate(E).value, response_rate(-E).value] for E in Es]
        T = fit_temperature(Es, rates)
        assert abs(T - 1.0 / (2.0 * math.pi)) <= 0.02 / (2.0 * math.pi)

    @pytest.mark.parametrize("T", [80.0, 120.0, 1000.0])
    @pytest.mark.parametrize("E", [0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
    def test_rate_is_smoothed_planck(self, E, T):
        # the windowed rate is the eternal rate smoothed by the window's Gaussian
        # in energy, (T / sqrt pi) e^{-T^2 (E - E')^2}, summed on E +- 9/T
        x, w = legendre.leggauss(200)
        Ep = E + (9.0 / T) * x
        ref = sum((9.0 / T) * wk * expected_rate(float(e)) * (T / math.sqrt(math.pi))
                  * math.exp(-(T * (E - e)) ** 2) for wk, e in zip(w, Ep))
        res = response_rate(E, window_time=T)
        assert abs(res.value - ref) <= res.est_error

    @pytest.mark.parametrize("E", [1.0, 3.0, 5.0, 10.0, 30.0])
    def test_est_error_covers_window_cut(self, E):
        # the integral stops at d = 7T, where the window is still e^{-12.25} of
        # its peak: against a 12T cut the rate moves by 5.3e-13 at E = 1 and by
        # 7.7e-14 / 2.4e-14 at E = 10 / 30, where est_error read 4.2e-14 / 4.7e-15
        T, eps = 80.0, 1e-8

        def f(d, *grid):
            dW = -(_sinh2_deficit((d - 1j * eps) / 2.0) / (16.0 * math.pi**2))
            return 2.0 * np.cos(E * d) * np.exp(-(d * d) / (4.0 * T * T)) * dW, 0.0

        val, _ = integrate_adaptive(f, 1e-12, 12.0 * T, 1e-14, est_freq=E + 1.0)
        res = response_rate(E, window_time=T, eps=eps)
        assert abs(res.value - (_vacuum_window_rate(E, T) + val.real)) <= res.est_error

    @pytest.mark.parametrize("E", [0.0, 0.5, -1.0, 2.0])
    def test_rates_at_plus_and_minus_E_share_one_integral(self, E, monkeypatch):
        calls, integrate = [], detector.integrate_trapezoid
        monkeypatch.setattr(detector, "integrate_trapezoid",
                            lambda *a, **k: calls.append(a[1:3]) or integrate(*a, **k))
        up, down = response_rates(E)
        assert len(calls) == 1
        assert (up, down) == (response_rate(E), response_rate(-E))  # bit for bit

    @pytest.mark.parametrize("eps", [1e-8, 5e-9])
    def test_grid_route_matches_one_integral_per_energy(self, eps):
        # the CLI's grid and both of its eps: each energy integrated on its
        # own at est_freq |E| + 1, the route before energies shared a block
        T, grid = 80.0, [0.1, 0.5, 1.0, 2.0, 3.0]

        def single(E):
            def f(d, *grid):
                dW = -(_sinh2_deficit((d - 1j * eps) / 2.0) / (16.0 * math.pi**2))
                return 2.0 * np.cos(E * d) * np.exp(-(d * d) / (4.0 * T * T)) * dW, 0.0

            val, _ = integrate_adaptive(f, 1e-12, 7.0 * T, detector._RATE_TOL, est_freq=abs(E) + 1.0)
            return [_vacuum_window_rate(e, T) + val.real for e in (E, -E)]

        for E, pair in zip(grid, response_rates(grid, T, eps)):
            for r, ref in zip(pair, single(E)):
                assert abs(r.value - ref) <= r.est_error

    def test_each_grid_node_evaluated_once(self, monkeypatch):
        # the default grid is one block: one call on the 2,141 nodes of the
        # first grid (step pi / 6 over 0 <= d <= 560) and its midpoints,
        # where Gauss-Legendre passes took 38,544 nodes
        sizes, integrate = [], detector.integrate_trapezoid

        def counting(f, *a, **k):
            return integrate(lambda d, *grid: sizes.append(d.size) or f(d, *grid), *a, **k)

        monkeypatch.setattr(detector, "integrate_trapezoid", counting)
        response_rates([0.5, 1.0, 2.0])
        N = sizes[0] - 1
        assert sizes == [N + 1] + [N << i for i in range(len(sizes) - 1)]
        assert sum(sizes) <= 2_500

    def test_long_grids_integrate_in_blocks(self, monkeypatch):
        # 200 energies never put more than _E_ROWS rows into one integrand,
        # so its memory does not grow with the grid; a short window keeps
        # the passes small
        rows, integrate = [], detector.integrate_trapezoid

        def recording(f, *a, **k):
            def shaped(*grid):
                out = f(*grid)
                rows.append(out[0].shape[0])
                return out

            return integrate(shaped, *a, **k)

        monkeypatch.setattr(detector, "integrate_trapezoid", recording)
        grid = np.linspace(-2.0, 2.0, 200)
        rates = response_rates(grid, window_time=5.0)
        assert len(rates) == 200 and max(rows) == detector._E_ROWS
        for i in (0, 101, 199):  # the rows keep their energies
            up, down = rates[i]
            ref_up, ref_down = response_rates(grid[i], window_time=5.0)
            assert abs(up.value - ref_up.value) <= up.est_error + ref_up.est_error
            assert abs(down.value - ref_down.value) <= down.est_error + ref_down.est_error

    def test_fit_temperature_shape_contract(self):
        with pytest.raises(DomainError):
            fit_temperature([1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("rates", [[[1.0, -1.0]], [[0.0, 1.0]]])
    def test_fit_temperature_rejects_non_positive_rates(self, rates):
        # the balance ratio's log would be NaN or infinite
        with pytest.raises(DomainError):
            fit_temperature([1.0], rates)

    @pytest.mark.parametrize("energies,rates", [([], np.zeros((0, 2))), ([0.0], [[1.0, 1.0]])],
                             ids=["empty", "zero-grid"])
    def test_fit_temperature_rejects_grid_without_nonzero_energy(self, energies, rates):
        # the least-squares slope was 0/0
        with pytest.raises(DomainError):
            fit_temperature(energies, rates)

    @pytest.mark.parametrize("energies,rates", [([[1.0, 2.0]], [[0.5, 1.0]]), ([1.0], [[math.inf, 1.0]]),
                                                ([1.0], [[1.0, math.nan]])],
                             ids=["2-D", "inf", "nan"])
    def test_fit_temperature_rejects_what_the_spectrum_fit_rejects(self, energies, rates):
        # 2-D energies broadcast against the rates and gave T = 2.40; an
        # infinite rate passed rates > 0 and gave T = -0.0
        with pytest.raises(DomainError):
            fit_temperature(energies, rates)


    @pytest.mark.parametrize("rates", [[[1e300, 1e-300]], [[1e-300, 1e300]]])
    def test_fit_temperature_rejects_overflowing_balance_ratios(self, rates):
        # the ratio overflowed to inf with a warning, or fell to 0, and its log was infinite
        with pytest.raises(DomainError, match="balance ratios"):
            fit_temperature([1.0], rates)

    def test_fit_temperature_rejects_unit_balance_ratios(self):
        # every ratio 1 gives the slope 0, where 1 / slope raised ZeroDivisionError
        with pytest.raises(DomainError):
            fit_temperature([0.5, 1.0], [[2.0, 2.0], [3.0, 3.0]])


class TestVacuumWindowRate:
    def test_math_erfc_matches_scipy(self):
        # the closed-form vacuum part uses math.erfc; scipy is a test dependency
        x = np.linspace(-30.0, 26.0, 5601)
        got = np.array([math.erfc(v) for v in x])
        ref = special.erfc(x)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)
