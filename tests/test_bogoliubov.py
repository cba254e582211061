import math
import time

import numpy as np
import pytest

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
from diamondfield.geometry import DiamondScale
from diamondfield.modes import Profile
from diamondfield.specfun import kummer_m_vec


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

    def test_scale_units(self):
        # A, B carry units of 1/a; arguments are absolute
        A1, _ = ab_coefficients(1.0, 1.5, scale=DiamondScale(1.0))
        A2, _ = ab_coefficients(2.0, 3.0, scale=DiamondScale(2.0))
        assert abs(A2 - A1 / 2.0) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ab_coefficients(-1.0, 1.0)
        with pytest.raises(DomainError):
            ab_coefficients(1.0, 0.0)


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

    def test_kappa_split_guard(self):
        with pytest.raises(DomainError):
            thermal_occupation(1.0, 0.02, kappa_split=10.0)

    def test_fit_temperature_exact_planck(self):
        om = np.array([0.5, 1.0, 2.0])
        occ = 1.0 / np.expm1(2.0 * math.pi * om)
        T = fit_temperature(om, occ)
        assert abs(T - 1.0 / (2.0 * math.pi)) < 1e-12

    def test_fit_temperature_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fit_temperature([1.0], [0.0])


def _count_mp_calls(monkeypatch):
    import mpmath

    calls = []
    hyp1f1 = mpmath.hyp1f1

    def counting(*args, **kwargs):
        calls.append(args)
        return hyp1f1(*args, **kwargs)

    monkeypatch.setattr(mpmath, "hyp1f1", counting)
    return calls


def _packet(omega0, v0=0.0):
    om, wt, G = Profile(omega0, 0.02, v0).nodes()
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
        A, B = smeared_ab(om, coeff, self.BAND)
        assert calls == []  # every band column went through the Euler integral
        assert np.all(np.abs(A - A_ref) <= 1e-10 * np.abs(A_ref))
        assert np.all(np.abs(B - B_ref) <= 1e-10 * np.abs(B_ref))

    def test_occupation_makes_no_mpmath_calls(self, monkeypatch):
        calls = _count_mp_calls(monkeypatch)
        thermal_occupation(1.0, 0.02)
        assert calls == []

    def test_uncertified_lanes_fall_back_to_closed_form_sum(self, monkeypatch):
        # B_G ~ e^{-pi Omega0} cancels below the rounding scale of the integral
        om, coeff = _packet(4.0)
        kappa = np.array([3.0, 4.0, 5.0])
        A_ref, B_ref = _closed_form_sum(om, coeff, kappa)
        calls = _count_mp_calls(monkeypatch)
        A, B = smeared_ab(om, coeff, kappa)
        assert calls  # the per-node sum ran, with mpmath in the band
        assert np.all(np.abs(A - A_ref) <= 1e-14 * np.abs(A_ref))
        assert np.all(np.abs(B - B_ref) <= 1e-14 * np.abs(B_ref))


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
