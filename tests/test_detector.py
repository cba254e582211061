import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from diamondfield import detector
from diamondfield._quad import integrate_trapezoid
from diamondfield.detector import (
    expected_rate,
    fit_temperature,
    identity_residual,
    response_rate,
    response_rates,
    worldline_clock,
)
from diamondfield.errors import DomainError


def _sinh2_deficit(x):
    """1/sinh(x)^2 - 1/x^2 for Re x > 0, stable through x = 0 and free of
    overflow: the series in x^2 on |x| < 0.1, elsewhere 4q/(1 - q)^2 - 1/x^2
    with q = e^{-2x}."""
    x = np.asarray(x)
    out = np.empty(x.shape, dtype=np.result_type(x, float))
    small = np.abs(x) < 0.1
    x2 = x[small] ** 2
    out[small] = -1.0 / 3.0 + x2 * (1.0 / 15.0 + x2 * (-2.0 / 189.0 + x2 / 675.0))
    xl = x[~small]
    q = np.exp(-2.0 * xl)
    out[~small] = 4.0 * q / (1.0 - q) ** 2 - 1.0 / (xl * xl)
    return out


def _vacuum_window_rate(E, T):
    """Closed-form windowed vacuum response
    (1/4 pi^{3/2} T) e^{-T^2 E^2} - (E/4 pi) erfc(T E)."""
    return math.exp(-(T * E) ** 2) / (4.0 * math.pi**1.5 * T) - (E / (4.0 * math.pi)) * math.erfc(T * E)


def _d_route_rates(E, T, eps):
    """((rate(E), est_error), (rate(-E), est_error)) by the time-domain
    route, independent of the energy smear: the vacuum part of the windowed
    correlation in closed form, and the smooth remainder 2 cos(E d) g(d),
    g the window times the vacuum-subtracted thermal correlation with its
    i*eps, integrated over 0 <= d <= 7T; est_error adds to the halving gap
    the imaginary part and the by-parts bound of the tail past 7T."""
    def g(d):
        dW = -(_sinh2_deficit((d - 1j * eps) / 2.0) / (16.0 * math.pi**2))
        return np.exp(-(d * d) / (4.0 * T * T)) * dW

    def integrand(d, start, step):
        return 2.0 * np.cos(E * d) * g(d), 0.0

    d_max = 7.0 * T
    step = min(1.0, math.pi / (2.0 * (abs(E) + 1.0)))
    val, err = integrate_trapezoid(integrand, 0.0, d_max, 1e-12, step)
    tail = 2.0 * 2.0 * abs(g(np.array([d_max]))[0]) / max(abs(E), d_max / (T * T))
    est = float(err + abs(val.imag) + tail)
    return tuple((_vacuum_window_rate(e, T) + val.real, est) for e in (E, -E))


def _rate_30_digits(E, T):
    """rate_T(E) = (1/sqrt pi) Int e^{-x^2} r(E + x/T) dx by 30-digit
    mpmath, the integrand scaled by r(E) so that quad's absolute tolerance
    is a relative one."""
    with mp.workdps(30):
        E, T = mp.mpf(E), mp.mpf(T)

        def r(y):
            return 1 / (4 * mp.pi**2) if y == 0 else y / (2 * mp.pi * mp.expm1(2 * mp.pi * y))

        scale = r(E)
        val = mp.quad(lambda x: mp.exp(-x * x) * r(E + x / T) / scale, mp.linspace(-16, 16, 33))
        return float(scale * val / mp.sqrt(mp.pi))


def _fails_fast(call):
    """call() raises DomainError within 1 s (a RuntimeWarning fails the run)."""
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        call()
    assert time.perf_counter() - t0 < 1.0


class TestWorldline:
    def test_clock_range(self):
        # proper time (-inf, inf) covers Minkowski time (-2, 2), in units of 1/a
        assert worldline_clock(5.0) < 2.0
        assert worldline_clock(0.0) == 0.0
        assert worldline_clock(-5.0) > -2.0
        assert abs(worldline_clock(50.0)) <= 2.0

    @given(st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_clock_rate_is_derivative(self, eta):
        h = 1e-6
        num = (worldline_clock(eta + h) - worldline_clock(eta - h)) / (2 * h)
        assert abs(num - 1.0 / math.cosh(eta / 2.0) ** 2) < 1e-8

    def test_clock_is_elementwise(self):
        etas = [-3.0, 0.0, 0.5, 40.0]
        assert worldline_clock(etas).tolist() == [worldline_clock(e) for e in etas]


def _separate_forms_residual(eta_grid):
    """identity_residual from four separate functions: the Minkowski
    Wightman function with its i eps (eps = 0), and the scaled static, the
    accelerated and the thermal form, each in complex arithmetic."""
    def minkowski(dt, dr, eps=0.0):
        dt = np.asarray(dt, dtype=complex) - 1j * eps
        dr = np.asarray(dr, dtype=float)
        return -(1.0 / (4.0 * math.pi**2)) / (dt * dt - dr * dr)

    def clock(eta):
        return 2.0 * np.tanh(np.asarray(eta) / 2.0)

    def static(eta, eta_p):
        num = minkowski(clock(eta) - clock(eta_p), 0.0)
        return num / (np.cosh(np.asarray(eta) / 2.0) ** 2 * np.cosh(np.asarray(eta_p) / 2.0) ** 2)

    def accelerated(tau, tau_p):
        dt = np.sinh(tau) - np.sinh(tau_p)
        dr = np.cosh(tau) - np.cosh(tau_p)
        return minkowski(dt, np.abs(dr))

    def thermal(d):
        return -(1.0 / (16.0 * math.pi**2)) / np.sinh(np.asarray(d, dtype=complex) / 2.0) ** 2

    eta = np.asarray(eta_grid, dtype=float)
    e1, e2 = np.meshgrid(eta, eta, indexing="ij")
    mask = np.abs(e1 - e2) >= 1e-3
    e1, e2 = e1[mask], e2[mask]
    ref = thermal(e1 - e2)
    r1 = np.max(np.abs(static(e1, e2) - ref) / np.abs(ref))
    r2 = np.max(np.abs(accelerated(e1, e2) - ref) / np.abs(ref))
    return float(max(r1, r2))


class TestWightman:
    def test_identity_grid(self):
        res = identity_residual(np.linspace(-3.0, 3.0, 20))
        assert res <= 1e-10

    @pytest.mark.parametrize("grid", [
        [math.nan, 1.0, 2.0], [0.0, math.inf], [-math.inf, 0.0],
        [1.0, 1.0005], [], [0.0, 800.0], [0.0, 10.5], [-10.5, 0.0],
    ])
    def test_identity_residual_outside_the_domain_fails_fast(self, grid):
        # a NaN was dropped (residual 4.5e-16), a grid with no pair 1e-3 apart
        # raised numpy's zero-size reduction error, and [0, 800] overflowed
        _fails_fast(lambda: identity_residual(grid))

    @pytest.mark.parametrize("grid", [[-10.0, 10.0], [10.0 - 1.001e-3, 10.0], [-10.0, -10.0 + 1.001e-3]])
    def test_identity_residual_domain_edges_stay_finite(self, grid):
        # a pair 1e-3 apart cancels to 0 in the accelerated form at |eta| = 15.1
        assert 0.0 <= identity_residual(grid) < 1e-3

    def test_forms_agree_pointwise(self):
        assert identity_residual([0.7, -0.4]) < 1e-12

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
    def test_residual_bit_equal_to_the_separate_forms(self, seed):
        # the default grid of detector and validate, then seeded grids inside the domain
        if seed is None:
            grid = np.linspace(-3.0, 3.0, 20)
        else:
            rng = np.random.default_rng(seed)
            grid = rng.uniform(-detector._ETA_MAX, detector._ETA_MAX, int(rng.integers(2, 40)))
        assert identity_residual(grid) == _separate_forms_residual(grid)

    def test_default_residual_keeps_its_printed_value(self):
        assert f"{identity_residual(np.linspace(-3.0, 3.0, 20)):.12g}" == "7.05165974973e-14"


class TestResponse:
    @pytest.mark.parametrize("E", [0.5, 1.0, 2.0])
    def test_rate_matches_thermal(self, E):
        res = response_rate(E)
        assert abs(res.value - expected_rate(E)) <= 0.02 * expected_rate(E)

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
        "response_rates(1.0, 0.04)", "response_rate(1e301)", "response_rates([1.0, -1e301])",
    ])
    def test_outside_the_domain_fails_fast(self, expr, bounded):
        # T^2 underflowed to 0 at the window 1e-162 (ZeroDivisionError); at
        # 1e-170 and 1e-300 a warning ended in a NaN ConvergenceError, and at
        # 1e300 and inf T^2 overflowed with a warning.  A NaN energy ended in
        # ConvergenceError after the quadrature, an infinite one in
        # ZeroDivisionError.  The window 0.05 is a round edge above 0.025,
        # where the first call and two halvings just fit the node budget;
        # past |E| = 1e300, 2 pi |E'| may overflow
        name, seconds, err = bounded("import math\nfrom diamondfield.detector import response_rate, response_rates",
                                     expr)
        assert name == "DomainError" and seconds < 1.0
        assert "Warning" not in err

    @pytest.mark.parametrize("expr", [
        "response_rates(1.0, 80.0, -1e-9)", "response_rates(1.0, 80.0, math.nan)",
    ])
    def test_eps_outside_the_domain_fails_fast(self, expr, bounded):
        name, seconds, err = bounded("import math\nfrom diamondfield.detector import response_rates", expr)
        assert name == "DomainError" and seconds < 1.0
        assert "Warning" not in err

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.1, 1e10])
    def test_eps_has_no_effect(self, eps):
        # the rate is the eps -> 0 limit, bit for bit at any eps in the domain
        assert response_rates([0.5, -2.0], 80.0, eps) == response_rates([0.5, -2.0], 80.0, 1e-8)

    def test_domain_edges_are_in_the_domain(self):
        # the window 1e150 ran into the node budget on the time-domain route
        for T in detector._WINDOW:
            for pair in response_rates([0.5, 1.0, 2.0], T):
                assert all(math.isfinite(r.value) and r.value > r.est_error for r in pair)

    def test_largest_energies_run_without_warning(self):
        # 2 pi |E'| stays finite: the excitation rate underflows to 0, below its est_error
        up, down = response_rates(detector._E_MAX)
        assert up.value == 0.0 < up.est_error
        assert down.value == detector._E_MAX / (2.0 * math.pi)

    @pytest.mark.parametrize("E", [math.inf, -math.inf, math.nan, 1e301, -1e301])
    def test_expected_rate_outside_the_domain_fails_fast(self, E):
        # -inf returned inf, inf gave NaN and 1e308 overflowed
        _fails_fast(lambda: expected_rate(E))

    @pytest.mark.parametrize("E", [detector._E_MAX, -detector._E_MAX])
    def test_expected_rate_domain_edges_stay_finite(self, E):
        assert 0.0 <= expected_rate(E) < math.inf

    def test_fit_temperature(self):
        Es = [0.5, 1.0, 2.0]
        rates = [[response_rate(E).value, response_rate(-E).value] for E in Es]
        T = fit_temperature(Es, rates)
        assert abs(T - 1.0 / (2.0 * math.pi)) <= 0.02 / (2.0 * math.pi)

    @pytest.mark.parametrize("E,T", [
        *((E, T) for T in (80.0, 120.0, 1000.0) for E in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)),
        *((E, 80.0) for E in (5.0, -5.0, 10.0, -10.0, 20.0, -20.0)),
    ])
    def test_rate_is_smoothed_planck(self, E, T):
        # the windowed rate is the eternal rate smoothed by the window's
        # Gaussian in energy; the reference integrates it at 30 digits,
        # directly at E < 0, where the code adds |E| / 2 pi to the rate at |E|
        ref = _rate_30_digits(E, T)
        res = response_rate(E, window_time=T)
        assert abs(res.value - ref) <= min(res.est_error, 1e-12 * ref)

    @pytest.mark.parametrize("E", [0.0, 0.5, -1.0, 2.0])
    def test_rates_at_plus_and_minus_E_share_one_integral(self, E, monkeypatch):
        calls, integrate = [], detector.integrate_trapezoid
        monkeypatch.setattr(detector, "integrate_trapezoid",
                            lambda *a, **k: calls.append(a[1:3]) or integrate(*a, **k))
        up, down = response_rates(E)
        assert len(calls) == 1
        assert (up, down) == (response_rate(E), response_rate(-E))  # bit for bit

    @pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-3])
    @pytest.mark.parametrize("T", [1.0, 10.0, 80.0])
    @pytest.mark.parametrize("E", [0.5, 1.0, 2.0])
    def test_smear_matches_the_time_domain_oracle(self, E, T, eps):
        for r, (ref, ref_err) in zip(response_rates(E, T, eps), _d_route_rates(E, T, eps)):
            assert abs(r.value - ref) <= r.est_error + ref_err

    def test_each_grid_node_evaluated_once(self, monkeypatch):
        # one integral per energy, on a grid set by T alone: its first call
        # takes the 2N + 1 nodes of the first grid and its midpoints, each
        # halving the new midpoints only
        calls, integrate = [], detector.integrate_trapezoid

        def counting(f, *a, **k):
            calls.append([])
            return integrate(lambda x, *grid: calls[-1].append(x.size) or f(x, *grid), *a, **k)

        monkeypatch.setattr(detector, "integrate_trapezoid", counting)
        for T in (0.05, 1.0, 80.0):
            calls.clear()
            response_rates([0.5, 1.0, 2.0], T)
            assert len(calls) == 3 and calls[0][0] == calls[1][0] == calls[2][0]
            for sizes in calls:
                N = (sizes[0] - 1) // 2
                assert sizes == [2 * N + 1] + [N << i for i in range(1, len(sizes))]

    def test_long_grids_integrate_in_blocks(self, monkeypatch):
        # 200 energies put one row into each integrand, so its memory does
        # not grow with the grid
        rows, integrate = [], detector.integrate_trapezoid

        def recording(f, *a, **k):
            def shaped(*grid):
                out = f(*grid)
                rows.append(np.shape(out[0]))
                return out

            return integrate(shaped, *a, **k)

        monkeypatch.setattr(detector, "integrate_trapezoid", recording)
        grid = np.linspace(-2.0, 2.0, 200)
        rates = response_rates(grid, window_time=5.0)
        assert len(rates) == 200 and all(len(shape) == 1 for shape in rows)
        for i in (0, 101, 199):  # the rows keep their energies
            assert rates[i] == response_rates(grid[i], window_time=5.0)

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
