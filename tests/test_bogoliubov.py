import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from diamondfield import _quad, bogoliubov
from diamondfield.bogoliubov import (
    ab_coefficients,
    ab_numeric,
    completeness_check,
    fit_temperature,
    planck_occupation,
    smeared_ab,
    thermal_occupation,
)
from diamondfield.errors import DomainError
from diamondfield.modes import Profile
from diamondfield.specfun import kummer_asymptotic_sectors, kummer_m_vec


class TestCoefficients:
    @pytest.mark.parametrize("Omega,kappa", [(0.5, 0.7), (1.0, 1.5), (2.0, 0.4), (3.0, 3.0)])
    def test_closed_form_vs_quadrature(self, Omega, kappa):
        A, B = ab_coefficients(Omega, kappa)
        An, Bn, est = ab_numeric(Omega, kappa)
        assert abs(A - An) <= 1e-8 * abs(A) + 10 * est
        assert abs(B - Bn) <= 1e-8 * abs(B) + 10 * est

    def test_shifted_diamond_phase(self):
        # coefficients of diamond n differ only by e^{+-4 i n kappa}
        kappa = 1.3
        A0, B0 = ab_coefficients(1.0, kappa, n=0)
        A2, B2 = ab_coefficients(1.0, kappa, n=2)
        assert abs(A2 - np.exp(8j * kappa) * A0) < 1e-13
        assert abs(B2 - np.exp(-8j * kappa) * B0) < 1e-13

    def test_shifted_quadrature_consistent(self):
        A, B = ab_coefficients(1.0, 0.9, n=1)
        An, Bn, est = ab_numeric(1.0, 0.9, n=1)
        assert abs(A - An) <= 1e-8 * abs(A) + 10 * est

    def test_vectorized_over_k(self):
        ks = np.array([0.5, 1.0, 2.0])
        A, B = ab_coefficients(1.0, ks)
        assert A.shape == (3,)
        A1, _ = ab_coefficients(1.0, 1.0)
        assert abs(A[1] - A1) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ab_coefficients(-1.0, 1.0)
        with pytest.raises(DomainError):
            ab_coefficients(1.0, 0.0)

    @pytest.mark.parametrize("args", ["1e300, 1.0", "1e8, 1.0", "1e5, 1.0", "50.5, 1.0", "math.nan, 1.0",
                                      "1.0, math.nan", "1.0, math.inf", "1.0, [2.0, -1.0]"])
    def test_outside_the_certified_domain_fails_fast(self, args, bounded):
        # Omega = 1e300 ran about 400 s into an mpmath NoConvergence, 1e8
        # about 1 s, 1e5 warned of an invalid value; k = NaN raised ValueError
        name, seconds, err = bounded("import math\nfrom diamondfield.bogoliubov import ab_coefficients",
                                     f"ab_coefficients({args})")
        assert name == "DomainError" and seconds < 1.0
        assert "Warning" not in err

    def test_domain_edge_is_in_the_domain(self):
        A, B = ab_coefficients(bogoliubov._OMEGA_MAX, np.array([0.5, 30.0]))
        assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))


def _ab_mpmath(Omega, kappa):
    """(A, B) at 40 digits from mpmath.hyp1f1 itself, not through kummer_m_vec."""
    import mpmath

    with mpmath.workdps(40):
        Om, ka = mpmath.mpf(Omega), mpmath.mpf(kappa)
        pref = 2 * mpmath.sqrt(Om * ka) / mpmath.sinh(mpmath.pi * Om)
        A = pref * mpmath.expj(2 * ka) * mpmath.hyp1f1(1 + 1j * Om, 2, -4j * ka)
        B = pref * mpmath.expj(-2 * ka) * mpmath.hyp1f1(1 + 1j * Om, 2, 4j * ka)
        return complex(A), complex(B)


class TestContract:
    # lanes where the two asymptotic Kummer sectors cancel (|M| is 1/200 of
    # either sector at (2.85, 12.95)).  Certified per sector, A missed 1e-10
    # by 3x there, B by 4x at (4.27, 9.14), and the rest, from a scan of
    # Omega = 0.5..8 by 0.5 and kappa = 5..25 by 0.02, by 1.3-2.2x.  At
    # (7.5, 15.1) the bound needs the rounding of the sector prefactors too
    @pytest.mark.parametrize("Omega, kappa", [
        (2.85, 12.95), (4.27, 9.14), (1.5, 7.28), (2.0, 7.58), (3.5, 8.6),
        (4.0, 8.86), (4.0, 8.88), (5.0, 9.74), (7.5, 11.34), (7.5, 15.1),
    ])
    def test_cancelling_sectors_within_contract(self, Omega, kappa):
        A, B = ab_coefficients(Omega, kappa)
        rA, rB = _ab_mpmath(Omega, kappa)
        assert abs(A - rA) <= 1e-10 * abs(rA)
        assert abs(B - rB) <= 1e-10 * abs(rB)

    @pytest.mark.parametrize("Omega", [0.5, 1.5, 3.0, 5.0, 8.0])
    def test_grid_within_contract(self, Omega):
        kappa = np.arange(5.0, 60.0, 0.5)
        A, B = ab_coefficients(Omega, kappa)
        for a, b, ka in zip(A, B, kappa):
            rA, rB = _ab_mpmath(Omega, ka)
            assert abs(a - rA) <= 1e-10 * abs(rA)
            assert abs(b - rB) <= 1e-10 * abs(rB)


class TestSpectrum:
    def test_occupation_matches_planck(self):
        res = thermal_occupation(1.0, 0.02)
        ref = planck_occupation(1.0, 0.02)
        assert abs(res.value - ref) <= 0.02 * ref
        assert res.est_error < 0.02 * ref
        # the log-uniform tail carries most of the integral for sigma = 0.02
        assert res.tail_part > 0.5 * res.value

    def test_occupation_position_invariance(self):
        # packet center shifts within the diamond only rephase the packet
        base = thermal_occupation(1.0, 0.02)
        res = thermal_occupation(1.0, 0.02, v0=0.5)
        assert abs(res.value - base.value) <= 1e-3 * base.value

    def test_completeness(self):
        res = completeness_check(1.0, 0.02)
        assert abs(res.value - 1.0) <= 0.01

    def test_fit_temperature_exact_planck(self):
        om = np.array([0.5, 1.0, 2.0])
        occ = 1.0 / np.expm1(2.0 * math.pi * om)
        T = fit_temperature(om, occ)
        assert abs(T - 1.0 / (2.0 * math.pi)) < 1e-12

    def test_planck_factor_underflows_without_warning(self):
        # e^{2 pi omega} overflows on the top nodes from omega0 about 113 up,
        # where np.expm1 warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < planck_occupation(113.0) < 1e-300
            assert planck_occupation(120.0) == 0.0

    def test_fit_temperature_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fit_temperature([1.0], [0.0])

    @pytest.mark.parametrize("omega,occupation", [
        pytest.param([1.0, 2.0], [math.nan, 0.1], id="nan"),
        pytest.param([1.0, 2.0], [math.inf, 0.1], id="inf"),
        pytest.param([1.0, 2.0], [0.1], id="short"),
        pytest.param([[1.0, 2.0]], [[0.1, 0.2]], id="2-D"),
        pytest.param([], [], id="empty"),
        pytest.param([0.0, 0.0], [0.1, 0.2], id="zero-grid"),
    ])
    def test_fit_temperature_rejects_bad_input(self, omega, occupation):
        # a NaN, a broadcast or infinite occupation gave a NaN or wrong T, an
        # empty or all-zero grid divided 0/0
        with pytest.raises(DomainError):
            fit_temperature(omega, occupation)

    @pytest.mark.parametrize("omega,occupation", [
        pytest.param([1.0, 2.0], [1e-300, 1e-310], id="subnormal-occupation"),
        pytest.param([1e300], [1.0], id="overflowing-grid"),
        pytest.param([1e154, 1e154], [1.0, 1.0], id="overflowing-sum"),
    ])
    def test_fit_temperature_fails_fast_without_overflow(self, omega, occupation):
        # 1/n overflowed at a subnormal n, x * x at omega = 1e300, each with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                fit_temperature(omega, occupation)

    def test_fit_temperature_at_the_domain_edges(self):
        tiny = np.finfo(float).tiny
        assert fit_temperature([1.0], [tiny]) == 1.0 / math.log1p(1.0 / tiny)
        assert fit_temperature([1e154], [1.0]) == 1e154 / math.log(2.0)


def _count_mp_calls(monkeypatch):
    import mpmath

    calls = []
    hyp1f1 = mpmath.hyp1f1

    def counting(*args, **kwargs):
        calls.append(args)
        return hyp1f1(*args, **kwargs)

    monkeypatch.setattr(mpmath, "hyp1f1", counting)
    return calls


def _packet(omega0, v0=0.0, sigma=0.02):
    om, wt, G = Profile(omega0, sigma, v0).nodes()
    return om, wt * G


def _closed_form_sum(om, coeff, kappa):
    """A_G, B_G as the sum of closed forms, mpmath in the Kummer band."""
    A = np.zeros(kappa.shape, dtype=complex)
    B = np.zeros(kappa.shape, dtype=complex)
    for Om, c in zip(om, coeff):
        pref = c * 2.0 * np.sqrt(Om * kappa) / math.sinh(math.pi * Om)
        A += pref * np.exp(2j * kappa) * kummer_m_vec(1.0 + 1j * Om, 2.0, -4j * kappa)
        B += pref * np.exp(-2j * kappa) * kummer_m_vec(1.0 + 1j * Om, 2.0, 4j * kappa)
    return A, B


class TestSmearedRoute:
    # 4 kappa from 10.4 to 28: columns with lanes kummer_m_vec sends to mpmath
    BAND = np.array([2.6, 3.1, 3.7, 4.4, 5.2, 6.0, 7.0])

    @pytest.mark.parametrize("v0", [0.0, 0.5])
    @pytest.mark.parametrize("omega0", [0.5, 1.0, 2.0])
    def test_euler_route_matches_closed_form_sum(self, omega0, v0, monkeypatch):
        om, coeff = _packet(omega0, v0)
        calls = _count_mp_calls(monkeypatch)
        A_ref, B_ref = _closed_form_sum(om, coeff, self.BAND)
        assert calls
        calls.clear()
        A, B, _ = smeared_ab(om, coeff, self.BAND)
        assert calls == []  # every band column went through the Euler integral
        assert np.all(np.abs(A - A_ref) <= 1e-10 * np.abs(A_ref))
        assert np.all(np.abs(B - B_ref) <= 1e-10 * np.abs(B_ref))

    @pytest.mark.parametrize("v0", [0.0, 0.5])
    @pytest.mark.parametrize("omega0", [0.5, 1.0, 2.0])
    def test_every_route_column_matches_closed_form_sum(self, omega0, v0, monkeypatch):
        # kummer_m_vec's Taylor, band and asymptotic columns up to kappa_split
        kappa = np.array([1e-6, 0.01, 0.5, 2.0, 8.0, 15.0, 25.0, 33.0, 39.5])
        om, coeff = _packet(omega0, v0)
        A_ref, B_ref = _closed_form_sum(om, coeff, kappa)
        calls = _count_mp_calls(monkeypatch)
        A, B, _ = smeared_ab(om, coeff, kappa)
        assert calls == []
        assert np.all(np.abs(A - A_ref) <= 1e-10 * np.abs(A_ref))
        assert np.all(np.abs(B - B_ref) <= 1e-10 * np.abs(B_ref))

    def test_occupation_makes_no_mpmath_calls(self, monkeypatch):
        calls = _count_mp_calls(monkeypatch)
        thermal_occupation(1.0, 0.02)
        assert calls == []

    @pytest.mark.parametrize("omega0", [3.0, 4.0, 6.0])
    def test_cancelling_lanes_match_closed_form_sum(self, omega0, monkeypatch):
        # B_G ~ e^{-pi Omega0} cancels below the rounding scale of the real-line sum
        om, coeff = _packet(omega0)
        kappa = np.array([3.0, 4.0, 5.0])
        A_ref, B_ref = _closed_form_sum(om, coeff, kappa)
        calls = _count_mp_calls(monkeypatch)
        A, B, _ = smeared_ab(om, coeff, kappa)
        assert calls == []
        assert np.all(np.abs(A - A_ref) <= 1e-10 * np.abs(A_ref))
        assert np.all(np.abs(B - B_ref) <= 1e-10 * np.abs(B_ref))

    @pytest.mark.parametrize("omega0", [2.0, 6.0])
    def test_lane_errors_bound_gap_to_30_digit_sum(self, omega0):
        import mpmath

        om, coeff = _packet(omega0)
        kappa = np.array([0.3, 4.0, 12.0, 27.0, 39.9])
        A, B, err = smeared_ab(om, coeff, kappa)
        with mpmath.workdps(30):
            for i, k in enumerate(kappa):
                ref = [mpmath.mpc(0), mpmath.mpc(0)]
                for Om, c in zip(om, coeff):
                    pref = c * 2 * mpmath.sqrt(Om * k) / mpmath.sinh(mpmath.pi * Om)
                    for j, sign in enumerate((-1, 1)):
                        ref[j] += (pref * mpmath.expj(-2 * sign * k)
                                   * mpmath.hyp1f1(1 + 1j * Om, 2, 4j * sign * k))
                assert abs(complex(ref[0]) - A[i]) <= err[0, i]
                assert abs(complex(ref[1]) - B[i]) <= err[1, i]

    @pytest.mark.parametrize("omega0", [3.0, 4.0, 6.0])
    def test_est_error_bounds_planck_gap_without_closed_forms(self, omega0, monkeypatch):
        calls = _count_mp_calls(monkeypatch)
        closed_forms = []
        monkeypatch.setattr(bogoliubov, "ab_coefficients",
                            lambda *a, **k: closed_forms.append(a) or ab_coefficients(*a, **k))
        monkeypatch.setattr(bogoliubov, "kummer_m_vec",
                            lambda *a, **k: closed_forms.append(a) or kummer_m_vec(*a, **k))
        res = thermal_occupation(omega0, 0.02)
        assert calls == [] and closed_forms == []
        gap = abs(res.value - planck_occupation(omega0, 0.02))
        assert gap <= res.est_error <= 1e-6 * res.value

    @pytest.mark.parametrize("omega0", [4.0, 6.0])
    def test_est_error_covers_lanes_left_on_the_real_line(self, omega0, monkeypatch):
        # theta = 0 sums the cancelling B_G lanes on the real line again: their
        # errors, 2e-9 of the value at omega0 = 6, must show up in est_error
        monkeypatch.setattr(bogoliubov, "_EULER_THETA", 0.0)
        res = thermal_occupation(omega0, 0.02)
        assert abs(res.value - planck_occupation(omega0, 0.02)) <= res.est_error

    @pytest.mark.parametrize("omega0", [3.0, 4.0])
    def test_est_error_bounds_unit_completeness_gap(self, omega0):
        # covers A_G lanes near zeros of A_G, kept on the real line under the error budget
        res = completeness_check(omega0, 0.02)
        assert abs(res.value - 1.0) <= res.est_error <= 1e-6


def _unfactored_trapezoid(kappa, phase, K):
    """The Euler-route trapezoid sums with one phase e^{ka phase(s)} per lane
    and node, 32 lanes at a time: the reference for the panel-factored sums."""
    W = bogoliubov._EULER_H * K.T
    W2 = 2.0 * W
    W2[1::2] = 0.0
    W = np.concatenate([W, W2], axis=1)
    T = np.empty((kappa.size, W.shape[1]), dtype=complex)
    for lo in range(0, kappa.size, 32):
        P = np.exp(np.outer(kappa[lo:lo + 32], phase))
        T[lo:lo + 32] = P @ W
    m = len(K)
    rounding = 1e-15 * bogoliubov._EULER_H * np.sum(np.abs(K), axis=1)
    return T[:, :m], np.abs(T[:, :m] - T[:, m:]) + rounding


def _unfactored(mid, off, phase, K):
    return _unfactored_trapezoid(np.add.outer(mid, off).ravel(), phase, K)


class TestPanelFactoring:
    @pytest.mark.parametrize("integral,omega0", [
        *(pytest.param(thermal_occupation, w, id=f"occupation-{w}") for w in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0)),
        *(pytest.param(completeness_check, w, id=f"completeness-{w}") for w in (0.5, 1.0, 3.0)),
    ])
    def test_est_error_bounds_gap_to_unfactored_phases(self, integral, omega0, monkeypatch):
        res = integral(omega0)
        monkeypatch.setattr(bogoliubov, "_trapezoid", _unfactored)
        ref = integral(omega0)
        assert abs(res.value - ref.value) <= res.est_error

    @pytest.mark.parametrize("omega0", [0.5, 1.0, 3.0, 6.0])
    def test_lanes_within_both_lane_errors(self, omega0, monkeypatch):
        # both panel levels of the occupation's finite part; the shifted line
        # runs at every level from omega0 = 1 on
        grids, euler_lanes = [], bogoliubov._euler_lanes
        monkeypatch.setattr(bogoliubov, "_euler_lanes",
                            lambda mid, off, K, *rows: grids.append((mid, off)) or euler_lanes(mid, off, K, *rows))
        thermal_occupation(omega0)
        assert len(grids) == 2
        K = bogoliubov._euler_kernels(*_packet(omega0))
        lanes = [euler_lanes(*grid, K) for grid in grids]
        monkeypatch.setattr(bogoliubov, "_trapezoid", _unfactored)
        for grid, (X, err) in zip(grids, lanes):
            X_ref, err_ref = euler_lanes(*grid, K)
            assert np.all(np.abs(X[0] - X_ref[0]) <= err[0] + err_ref[0])
            assert np.all(np.abs(X[1] - X_ref[1]) <= err[1] + err_ref[1])

    @pytest.mark.parametrize("omega0", [0.5, 1.0, 3.0, 6.0])
    def test_occupation_b_lanes_equal_both_row_lanes_bit_for_bit(self, omega0, monkeypatch):
        # the occupation sums the conj(K) row alone; its B_G lanes, shift
        # flags and lane errors must not move by a bit at either panel level
        calls, euler_lanes = [], bogoliubov._euler_lanes

        def recording(mid, off, K, *rows):
            out = euler_lanes(mid, off, K, *rows)
            calls.append((mid, off, K, out))
            return out

        monkeypatch.setattr(bogoliubov, "_euler_lanes", recording)
        thermal_occupation(omega0)
        assert len(calls) == 2
        for mid, off, K, (X, err) in calls:
            X_both, err_both = euler_lanes(mid, off, K)
            assert X.shape == (1, mid.size * off.size)
            assert np.array_equal(X[0], X_both[1])
            assert np.array_equal(err[0], err_both[1])

    @pytest.mark.parametrize("integral,rows", [(thermal_occupation, 1), (completeness_check, 2)])
    def test_real_line_sum_takes_the_rows_it_returns(self, integral, rows, monkeypatch):
        # the real-line sum (phase -2i tanh s, zero at s = 0) takes conj(K)
        # for the occupation and (K, conj(K)) for completeness; the shifted
        # line takes its one B_G row either way
        real, shifted, trapezoid = [], [], bogoliubov._trapezoid

        def recording(mid, off, phase, K):
            (real if phase[bogoliubov._EULER_N] == 0.0 else shifted).append(len(K))
            return trapezoid(mid, off, phase, K)

        monkeypatch.setattr(bogoliubov, "_trapezoid", recording)
        integral(1.0)
        assert real == [rows, rows]
        assert shifted and set(shifted) == {1}

    @pytest.mark.parametrize("omega0,shifted_panels", [(1.0, 16), (4.0, 77 + 154)])
    def test_phases_factor_over_panels(self, omega0, shifted_panels, monkeypatch):
        # one row of 2,001 phases per panel and one per node offset: 77 + 16
        # and 154 + 16 on the real line, 2 x 16 plus one per panel holding a
        # shifted lane on the other (13 lanes at omega0 = 1, all at 4), so
        # 1,052,526 at most; one phase per lane and node made 7,419,708 at
        # omega0 = 1 and 14,737,365 at omega0 = 4
        phases, kernels = [0], []
        exp_outer, euler_kernels = bogoliubov._exp_outer, bogoliubov._euler_kernels

        def counting(x, phase):
            phases[0] += np.size(x) * np.size(phase)
            return exp_outer(x, phase)

        monkeypatch.setattr(bogoliubov, "_exp_outer", counting)
        monkeypatch.setattr(bogoliubov, "_euler_kernels",
                            lambda *a: kernels.append(a) or euler_kernels(*a))
        thermal_occupation(omega0)
        assert phases[0] <= 2001 * (77 + 16 + 154 + 16 + 2 * 16 + shifted_panels)
        assert len(kernels) == 1  # K on both lines, once per integral


def _full_exp_outer(x, phase):
    return np.exp(np.multiply.outer(x, phase))


def _per_node_kernels(om, coeff):
    """_euler_kernels with one full row of exponentials per frequency node."""
    s, theta = bogoliubov._EULER_NODES, bogoliubov._EULER_THETA
    K = np.zeros((2, s.size), dtype=complex)
    for Om, c in zip(om, coeff):
        e = (c * 2.0 / (math.pi * math.sqrt(Om))) * np.exp(2j * Om * s)
        K[0] += e
        K[1] += math.exp(-2.0 * Om * theta) * e
    return K * (0.5 / np.cosh(np.stack([s, s + 1j * theta])) ** 2)


class TestMirroredPhases:
    """Phase rows are formed on s >= 0 and conjugated onto s < 0; every
    element must equal the full row's, bit for bit."""

    def test_nodes_are_symmetric(self):
        s = bogoliubov._EULER_NODES
        assert np.array_equal(s[::-1], -s)
        assert s[bogoliubov._EULER_N] == 0.0

    def test_exp_outer_is_full_exp_bit_for_bit(self):
        s, theta = bogoliubov._EULER_NODES, bogoliubov._EULER_THETA
        mid, off, _ = _quad.panel_grid(1e-9, bogoliubov._KAPPA_SPLIT, 154)
        for phase in (-2j * np.tanh(s), 2j * np.tanh(s + 1j * theta)):
            for x in (mid, off):
                got, want = bogoliubov._exp_outer(x, phase), _full_exp_outer(x, phase)
                assert got.shape == want.shape == (x.size, s.size)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("omega0,v0", [(0.5, 0.0), (1.0, 0.0), (4.0, 0.0), (1.0, 30.0), (2.0, -5.0)])
    def test_kernels_match_per_node_rows_bit_for_bit(self, omega0, v0):
        got, want = bogoliubov._euler_kernels(*_packet(omega0, v0)), _per_node_kernels(*_packet(omega0, v0))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("integral", [thermal_occupation, completeness_check])
    @pytest.mark.parametrize("omega0", [0.5, 1.0, 4.0])
    def test_integrals_equal_full_rows(self, integral, omega0, monkeypatch):
        res = integral(omega0)
        monkeypatch.setattr(bogoliubov, "_exp_outer", _full_exp_outer)
        monkeypatch.setattr(bogoliubov, "_euler_kernels", _per_node_kernels)
        ref = integral(omega0)
        assert res.value == ref.value and res.est_error == ref.est_error


class TestNarrowPackets:
    def test_too_narrow_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="sigma"):
            thermal_occupation(1.0, sigma=0.005)
        assert time.perf_counter() - t0 < 1.0

    def test_narrowest_supported_packet(self):
        res = thermal_occupation(1.0, sigma=0.01)
        ref = planck_occupation(1.0, sigma=0.01)
        assert abs(res.value - ref) <= res.est_error
        assert res.est_error <= 1e-6 * res.value


class TestPacketCenter:
    """e^{-i w v0} moves the packet's log-kappa envelope out to ln(kappa) ~ |v0|:
    the tail window and the node count follow |v0|."""

    @pytest.mark.parametrize("sigma,v0", [(0.02, 300.0), (0.02, -300.0), (0.1, 50.0), (0.1, -50.0)])
    def test_far_center_matches_planck(self, sigma, v0):
        # a window and node count blind to v0 left these 1.1e-2 and 3.3e-8 off
        res = thermal_occupation(1.0, sigma, v0=v0)
        ref = planck_occupation(1.0, sigma)
        assert abs(res.value - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("v0", [300.0, -300.0])
    def test_est_error_bounds_far_center(self, v0):
        res = thermal_occupation(1.0, 0.02, v0=v0)
        assert abs(res.value - planck_occupation(1.0, 0.02)) <= res.est_error

    @pytest.mark.parametrize("v0", [360.0, 1e12, -1e300])
    def test_unreachable_center_fails_fast(self, v0):
        # the node count grows with sigma |v0|: the window check comes first
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="v0"):
            thermal_occupation(1.0, 0.02, v0=v0)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("sigma,v0", [(0.0, 0.0), (0.02, math.nan), (0.02, math.inf)])
    def test_bad_packet_raises(self, sigma, v0):
        # the window reads sigma and v0 before the profile's nodes check them
        with pytest.raises(DomainError):
            thermal_occupation(1.0, sigma, v0=v0)


def _occupation_sweep_points(seed=20261019, count=20):
    """count (omega0, sigma, v0) inside the tail guard |v0| + 7/sigma <= 702:
    sigma log-uniform on [0.01, 0.3], omega0 uniform on [max(12 sigma, 0.3),
    that + 3] and v0 uniform on +-min(30, 702 - 7/sigma)."""
    rng, points = np.random.default_rng(seed), []
    for _ in range(count):
        sigma = math.exp(rng.uniform(math.log(0.01), math.log(0.3)))
        lo, reach = max(12.0 * sigma, 0.3), min(30.0, 702.0 - 7.0 / sigma)
        points.append((rng.uniform(lo, lo + 3.0), sigma, rng.uniform(-reach, reach)))
    return points


class TestOccupationSweep:
    @pytest.mark.parametrize("omega0,sigma,v0", _occupation_sweep_points())
    def test_planck_within_est_error(self, omega0, sigma, v0):
        res = thermal_occupation(omega0, sigma, v0=v0)
        assert abs(res.value - planck_occupation(omega0, sigma)) <= res.est_error


def _tail_per_order(T, r, w, kappa_split, dL):
    """_tail_integral with one complex expm1 per series order m of the
    same-sector pairs: the reference for the phase E formed once per sector."""
    S = T.shape[-1]
    absT = np.abs(T)
    value = rounding = parts = 0.0
    for i, k, m in np.ndindex(2, 2, 2 * S - 1):
        mu = m + 1j * np.subtract.outer(r[i], r[k])
        if i == k:
            zero = mu == 0.0
            K = np.where(zero, dL, -np.expm1(-mu * dL) / np.where(zero, 1.0, mu))
            remainder = 0.0
        else:
            y = -1j * (w[i] - w[k]) * kappa_split
            K, term = 0.0, np.exp(-y) / y
            for n in range(1, bogoliubov._PARTS_TERMS + 1):
                K, term = K + term, term * (-mu - n) / y
            remainder = np.abs(term) * abs(y) / (bogoliubov._PARTS_TERMS + m)
        s = np.arange(max(0, m - S + 1), min(m, S - 1) + 1)
        value += np.sum(K * (T[i][:, s] @ T[k][:, m - s].conj().T))
        scale = absT[i][:, s] @ absT[k][:, m - s].T
        rounding += np.sum(np.abs(K) * scale)
        parts += np.sum(remainder * scale)
    truncation = 2.0 * float(np.sum(absT[..., -1]) * np.sum(absT))
    return float(value.real), 1e-14 * rounding + parts + truncation


class TestTailSeries:
    KAPPA = np.array([40.0, 1e3, 1e30, 1e150])

    @pytest.mark.parametrize("sign", [-1, 1])  # A_G, B_G
    @pytest.mark.parametrize("v0", [0.0, 0.5])
    @pytest.mark.parametrize("omega0", [0.5, 1.0, 2.0])
    def test_terms_match_kummer_sectors(self, omega0, v0, sign):
        om, coeff = _packet(omega0, v0)
        T, r, _ = bogoliubov._sector_terms(om, coeff, 40.0, sign)
        s = np.arange(T.shape[-1])
        # per node j, sector i: c_j pref_j t_i at every kappa
        nodes = np.empty((2, om.size, self.KAPPA.size), dtype=complex)
        for j, Om in enumerate(om):
            z = 4j * sign * self.KAPPA
            t1, t2, e1, e2 = kummer_asymptotic_sectors(1.0 + 1j * Om, 2.0, z)
            assert np.all(e1 <= 1e-11 * np.abs(t1)) and np.all(e2 <= 1e-11 * np.abs(np.exp(z) * t2))
            pref = coeff[j] * 2.0 * np.sqrt(Om * self.KAPPA) / math.sinh(math.pi * Om)
            nodes[:, j] = pref * t1, pref * t2
        for col, kappa in enumerate(self.KAPPA):
            x = math.log(kappa / 40.0)
            series = np.sum(T * np.exp(-(s + 1j * r[..., None]) * x), axis=(1, 2))
            ref = math.sqrt(kappa) * nodes[..., col].sum(axis=1)
            scale = math.sqrt(kappa) * np.abs(nodes[..., col]).sum(axis=1)
            # against the node scale: far out the node sum cancels under the envelope
            assert np.all(np.abs(series - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("dL", [0.5, 2.0, 352.0])
    def test_closed_form_matches_expm1_per_order(self, dL, sign):
        # at short spans e^{-m dL} E is far from 0 and enters every order m
        T, r, w = bogoliubov._sector_terms(*_packet(1.0), 40.0, sign)
        value, err = bogoliubov._tail_integral(T, r, w, 40.0, dL)
        ref, ref_err = _tail_per_order(T, r, w, 40.0, dL)
        assert abs(value - ref) <= 1e-14 * abs(ref)
        assert abs(err - ref_err) <= 1e-12 * ref_err

    def test_unconverged_series_names_kappa_split(self):
        om, coeff = _packet(1.0)
        terms = bogoliubov._sector_terms(om, coeff, 5.0, 1)
        with pytest.raises(DomainError, match="kappa_split"):
            bogoliubov._tail_integral(*terms, 5.0, 10.0)

    @pytest.mark.parametrize("integral", [thermal_occupation, completeness_check])
    def test_unconverged_tail_fails_before_quadrature(self, integral):
        # at omega0 = 8 the finite part alone took 105 s before this raise
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="kappa_split"):
            integral(8.0)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("omega0,sigma", [(1.0, 1e100), (150.0, 0.02), (2e6, 0.02)])
    def test_unconverged_series_fails_before_the_form(self, omega0, sigma, monkeypatch):
        # at sigma = 1e100 the by-parts remainder bound formed inf * 0 and
        # warned of an invalid value before the series check raised; 2e6 is
        # the largest omega0 of the packet domain at sigma = 0.02
        forms = []
        monkeypatch.setattr(bogoliubov, "_by_parts_coeffs", lambda *a: forms.append(a))
        with pytest.raises(DomainError, match="kappa_split"):
            thermal_occupation(omega0, sigma)
        assert forms == []

    @pytest.mark.parametrize("sigma", [0.02, 0.3])
    def test_early_check_rejects_only_unconverged_series(self, sigma):
        # value <= dL (sum |T|)^2, so the check before the form must never
        # reject a series that the check on the value would pass; the top
        # nodes omega0 + 8 sigma straddle where the series stops converging
        dL = 2.0 + 7.0 / sigma
        outcomes = set()
        for top in np.linspace(5.5, 6.6, 12):
            T, r, w = bogoliubov._sector_terms(*_packet(top - 8.0 * sigma, sigma=sigma), 40.0, 1)
            ref, _ = _tail_per_order(T, r, w, 40.0, dL)
            truncation = 2.0 * np.sum(np.abs(T[..., -1])) * np.sum(np.abs(T))
            converged = 0.0 < truncation <= 1e-10 * ref
            outcomes.add(converged)
            if converged:
                bogoliubov._tail_integral(T, r, w, 40.0, dL)
            else:
                with pytest.raises(DomainError, match="kappa_split"):
                    bogoliubov._tail_integral(T, r, w, 40.0, dL)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("sigma", [0.02, 0.1])
    def test_high_packets_fail_fast(self, sigma):
        # from omega0 = 127.5 every series term underflowed to 0, so the check
        # 0 > 0 passed and the calls returned up to 0.042 with est_error ~1e-13,
        # where Planck is ~0 (4.5e-3 at (150, 0.02))
        for omega0 in [7.0, 127.5, 150.0, 318.5, *np.arange(8.0, 401.0, 8.0)]:
            t0 = time.perf_counter()
            with pytest.raises(DomainError, match="kappa_split"):
                thermal_occupation(omega0, sigma)
            assert time.perf_counter() - t0 < 1.0

    def test_est_error_bounds_planck_gap_off_center(self):
        res = thermal_occupation(1.0, 0.05, v0=0.5)
        gap = abs(res.value - planck_occupation(1.0, 0.05))
        assert gap <= res.est_error <= 1e-6 * res.value


class TestTailForm:
    """The conjugate-sector, Horner-evaluated Hermitian form against the loop
    over every (sector, sector, order) block."""

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("omega0", [0.5, 1.0, 6.0])
    def test_sectors_are_negated(self, omega0, sign):
        # the conjugate sector and beat blocks hold only while this does
        _, r, w = bogoliubov._sector_terms(*_packet(omega0, 25.0), 40.0, sign)
        assert np.array_equal(r[1], -r[0]) and w[1] == -w[0]

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("omega0,v0,dL", [
        *((omega0, v0, dL) for omega0 in (0.5, 3.0, 6.0) for v0 in (0.0, 25.0) for dL in (0.5, None)),
        (1.0, 300.0, None),  # 173 frequency nodes
    ])
    def test_matches_per_order_loop(self, omega0, v0, dL, sign):
        dL = dL or 2.0 + 7.0 / 0.02 + abs(v0)  # None: the spectrum's window
        T, r, w = bogoliubov._sector_terms(*_packet(omega0, v0), 40.0, sign)
        ref, ref_err = _tail_per_order(T, r, w, 40.0, dL)
        if 2.0 * np.sum(np.abs(T[..., -1])) * np.sum(np.abs(T)) > 1e-10 * ref:
            # at omega0 = 6 the short span holds too little to pass the truncation check
            with pytest.raises(DomainError, match="kappa_split"):
                bogoliubov._tail_integral(T, r, w, 40.0, dL)
            return
        value, err = bogoliubov._tail_integral(T, r, w, 40.0, dL)
        assert abs(value - ref) <= 1e-14 * abs(ref)
        assert abs(err - ref_err) <= 1e-12 * ref_err

    @pytest.mark.parametrize("v0", [0.0, 300.0])
    def test_temporaries_stay_n_by_n(self, v0):
        # one complex n x n array is 16 n^2 bytes; one per order would be 19 of them
        import tracemalloc

        terms = bogoliubov._sector_terms(*_packet(1.0, v0), 40.0, 1)
        n = terms[0].shape[1]
        tracemalloc.start()
        try:
            bogoliubov._tail_integral(*terms, 40.0, 2.0 + 7.0 / 0.02 + abs(v0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n * n * 16


def _dense_tail(T, r, w, kappa_split, dL):
    """_tail_integral as it was before it formed its kernels on the unordered
    node pairs: every kernel on the full n x n grid, per order m, and the beat
    and remainder polynomials by a complex Horner on the real frequency sums.
    The reference for the bits of the pair form."""
    def horner(c, x):
        acc = c[-1] * x
        for ck in c[-2:0:-1]:
            acc += ck
            acc *= x
        acc += c[0]
        return acc

    S = T.shape[-1]
    absT = np.abs(T)
    size = float(np.sum(absT))
    truncation = 2.0 * float(np.sum(absT[..., -1]) * size)
    if not 0.0 < truncation <= 2e-10 * dL * size * size < math.inf:
        raise DomainError("kappa_split")
    dr = np.subtract.outer(r[0], r[0])
    zero = dr == 0.0
    E = np.exp(-1j * dr * dL)
    d = np.subtract.outer(r[0], r[1])
    d2 = d * d
    Kc, Rc = bogoliubov._by_parts_coeffs(-1j * (w[0] - w[1]) * kappa_split, 2 * S - 1)
    U = np.concatenate([T[0], T[1].conj()], axis=1)
    V = np.concatenate([T[0].conj(), T[1]], axis=1)
    absU = np.concatenate([absT[0], absT[1]], axis=1)
    value = rounding = parts = 0.0
    for m in range(2 * S - 1):
        s = np.arange(max(0, m - S + 1), min(m, S - 1) + 1)
        left, right = np.concatenate([s, S + s]), np.concatenate([m - s, S + m - s])
        if m == 0:
            K = np.where(zero, dL, -np.expm1(-1j * dr * dL) / np.where(zero, 1.0, 1j * dr))
        else:
            K = (1.0 - math.exp(-m * dL) * E) / (m + 1j * dr)
        value += np.dot(K.ravel(), (U[:, left] @ V[:, right].T).ravel())
        rounding += np.dot(np.abs(K).ravel(), (absU[:, left] @ absU[:, right].T).ravel())
        K = horner(Kc[:, m], d)
        scale = (absT[0][:, s] @ absT[1][:, m - s].T).ravel()
        value += 2.0 * np.dot(K.ravel(), (T[0][:, s] @ T[1][:, m - s].conj().T).ravel())
        rounding += 2.0 * np.dot(np.abs(K).ravel(), scale)
        parts += 2.0 * np.dot(np.sqrt(horner(Rc[:, m], d2)).ravel(), scale)
    if not truncation <= 1e-10 * value.real:
        raise DomainError("kappa_split")
    return float(value.real), 1e-14 * rounding + parts + truncation


def _tail_cases(seed=20261021, count=40):
    """count (omega0, sigma, v0, sign): omega0 uniform on [0.2, 4], sigma drawn
    from {0.01, 0.02, 0.05, 0.1, 0.3}, v0 uniform on [-20, 20], both signs."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.2, 4.0), float(rng.choice([0.01, 0.02, 0.05, 0.1, 0.3])), rng.uniform(-20.0, 20.0),
             sign) for _ in range(count // 2) for sign in (-1, 1)]


class TestTailPairs:
    """The kernels on the unordered node pairs keep every bit of the dense form."""

    def test_hex_equal_to_the_dense_form(self):
        underflowed = converged = 0
        for omega0, sigma, v0, sign in _tail_cases():
            om, wt, G = Profile(omega0, sigma, v0).nodes()
            T, r, w = bogoliubov._sector_terms(om, wt * G, 40.0, sign)
            dL = 2.0 + 7.0 / sigma + abs(v0)  # the spectrum's window
            outcomes = []
            for tail in (bogoliubov._tail_integral, _dense_tail):
                try:
                    outcomes.append(tuple(x.hex() for x in tail(T, r, w, 40.0, dL)))
                except DomainError:
                    outcomes.append("unconverged")
            assert outcomes[0] == outcomes[1], (omega0, sigma, v0, sign)
            # e^{-m dL} is 0 from some order m on; the diagonal has dr = 0
            underflowed += math.exp(-(2 * T.shape[-1] - 2) * dL) == 0.0
            converged += outcomes[0] != "unconverged"
        assert underflowed and converged >= 30

    def test_integrals_keep_their_bits(self):
        # (value, est_error) as the dense form gave them.  The dot products of
        # the tail go through BLAS, whose threads split sums past 10,000 terms
        # (n >= 101 nodes in the tail), so the child runs on one thread, as CI does
        pins = [
            ("thermal_occupation(1.0)", "0x1.ee5d63fe83882p-10", "0x1.aa0531d773fd2p-53"),
            ("thermal_occupation(0.5, 0.1, 3.0)", "0x1.d5daa8eee4bfcp-5", "0x1.dbb788dc34728p-14"),
            ("thermal_occupation(2.0, 0.05, -7.5)", "0x1.ebbe1861b8b9dp-19", "0x1.0beac0568e8d5p-57"),
            ("thermal_occupation(3.0, 0.3)", "0x1.4a92ff6bffe7dp-25", "0x1.8f4e88b55bce6p-57"),
            ("completeness_check(1.0)", "0x1.0000000000012p+0", "0x1.44cfa11c5e440p-45"),
            ("completeness_check(0.7, 0.1)", "0x1.fffffffffd583p-1", "0x1.34c01c67cecd0p-30"),
        ]
        code = "\n".join(["from diamondfield.bogoliubov import thermal_occupation, completeness_check",
                          *(f"r = {call}; print(r.value.hex(), r.est_error.hex())" for call, _, _ in pins)])
        src = os.path.dirname(os.path.dirname(bogoliubov.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [h for _, value, err in pins for h in (value, err)]


def _planck_mp(omega0, sigma):
    """Int dw |G|^2 / (e^{2 pi w} - 1) over the profile's node span, at 30 digits,
    with break points at the decades of a span that reaches down to its clamp."""
    import mpmath

    lo, hi = max(omega0 - 8.0 * sigma, 1e-12), omega0 + 8.0 * sigma
    with mpmath.workdps(30):
        def f(w):
            return (mpmath.exp(-(w - omega0) ** 2 / (2 * sigma**2))
                    / (mpmath.sqrt(2 * mpmath.pi) * sigma * mpmath.expm1(2 * mpmath.pi * w)))
        points = [lo] + [10.0**k for k in range(-11, 0) if lo < 10.0**k < hi]
        return float(mpmath.quad(f, points + mpmath.linspace(points[-1], hi, 9)[1:]))


class TestTailWindow:
    """The window ends where the Gaussian envelope is below 1e-21 of its peak,
    but the profile stops at its end nodes, and their transform decays only like
    1/ln(kappa): est_error carries what the window leaves out."""

    @pytest.mark.parametrize("v0", [-20.0, 25.0, 40.0, 100.0])
    def test_est_error_bounds_30_digit_planck_gap(self, v0):
        # without the window's term the gap was 1.2-1.8x est_error
        res = thermal_occupation(1.0, 0.1, v0=v0)
        gap = abs(res.value - _planck_mp(1.0, 0.1))
        assert gap <= res.est_error <= 1e-12 * res.value

    @pytest.mark.parametrize("omega0,sigma", [(0.5, 0.1), (1.0, 0.2), (1.0, 0.125), (2.0, 2.0 / 9.0)])
    def test_est_error_bounds_infrared_gap(self, omega0, sigma):
        # end nodes near omega = 0 (the first three at the clamp 1e-12), where the
        # Planck factor grows like 1/(2 pi w): without the window's term est_error
        # was 2x to 3e10x too small here
        res = thermal_occupation(omega0, sigma)
        gap = abs(res.value - _planck_mp(omega0, sigma))
        assert gap <= res.est_error <= 0.1 * res.value
