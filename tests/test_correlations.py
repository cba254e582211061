import math
import time
import warnings

import numpy as np
import pytest

from diamondfield.correlations import (
    adjacent_moments_analytic,
    alpha_beta_adjacent,
    alpha_beta_numeric,
    asymptotic_moment,
    cross_moments,
    smeared_asymptotic_moment,
)
from diamondfield.errors import DomainError, PoleError


class TestAdjacentSharp:
    @pytest.mark.parametrize("Om,Omp", [(1.0, 1.3), (0.5, 1.1), (2.0, 0.7)])
    def test_closed_form_vs_quadrature(self, Om, Omp):
        al, be = alpha_beta_adjacent(Om, Omp)
        aln, ben, est = alpha_beta_numeric(Om, Omp)
        assert abs(al - aln) <= 1e-6 * abs(al) + 10 * est
        assert abs(be - ben) <= 1e-6 * abs(be) + 10 * est

    def test_beta_modulus_closed_form(self):
        # |beta|^2 reduces to elementary functions through the Gamma moduli
        Om, Omp = 1.0, 1.4
        _, be = alpha_beta_adjacent(Om, Omp)
        s = Om + Omp
        ref = (
            (Om / Omp)
            / (4.0 * math.pi**2)
            * (math.pi * Omp / math.sinh(math.pi * Omp))
            * (math.pi / (s * math.sinh(math.pi * s)))
            / (math.pi * Om / math.sinh(math.pi * Om))
        )
        assert abs(abs(be) ** 2 - ref) < 1e-10 * ref

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            alpha_beta_adjacent(1.0, 1.0)
        with pytest.raises(PoleError):
            alpha_beta_numeric(1.0, 1.0)

    def test_positive_frequencies_required(self):
        with pytest.raises(DomainError):
            alpha_beta_adjacent(-1.0, 1.0)

    def test_second_diamond_finite_on_diagonal(self):
        # only the adjacent diamond shares a tip with the exterior mode
        al, be, est = alpha_beta_numeric(1.0, 1.0 + 1e-6, n=2)
        assert np.isfinite(al) and np.isfinite(be)

    def test_numeric_requires_n_ge_1(self):
        with pytest.raises(DomainError):
            alpha_beta_numeric(1.0, 1.3, n=0)


class TestCrossMoments:
    def test_adjacent_routes_agree(self):
        spec = (1.0, 0.05)
        kg = cross_moments(spec, spec, 1)
        an = adjacent_moments_analytic(spec, spec)
        assert abs(kg.m_minus - an.m_minus) <= 1e-5 * abs(kg.m_minus)
        assert abs(kg.m_plus - an.m_plus) <= 1e-4 * abs(kg.m_minus)

    def test_adjacent_routes_agree_off_center(self):
        kg = cross_moments((1.0, 0.05), (1.2, 0.05), 1)
        an = adjacent_moments_analytic((1.0, 0.05), (1.2, 0.05))
        assert abs(kg.m_minus - an.m_minus) <= 1e-4 * abs(kg.m_minus)

    def test_moments_fall_off(self):
        m1 = abs(cross_moments((1.0, 0.05), (1.0, 0.05), 1).m_minus)
        m5 = abs(cross_moments((1.0, 0.05), (1.0, 0.05), 5).m_minus)
        assert m5 < m1

    def test_requires_separation(self):
        with pytest.raises(DomainError):
            cross_moments((1.0, 0.05), (1.0, 0.05), 0)


class TestAsymptotics:
    def test_smeared_ratio_near_one(self):
        cm = cross_moments((1.0, 0.05), (1.0, 0.05), 20)
        mm, mp = smeared_asymptotic_moment((1.0, 0.05), (1.0, 0.05), 20)
        assert 0.9 <= cm.m_minus.real / mm <= 1.1

    def test_inverse_square_slope(self):
        ns = np.array([10, 20, 40])
        vals = [abs(cross_moments((1.0, 0.05), (1.0, 0.05), int(n)).m_minus) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
        assert abs(slope + 2.0) < 0.1

    def test_sign_relation(self):
        cm = cross_moments((1.0, 0.05), (1.0, 0.05), 20)
        ratio = cm.m_plus / cm.m_minus
        assert abs(ratio + 1.0) < 0.15

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_moment(3, 1.0, 1.0)

    def test_mid_n_warns(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            asymptotic_moment(7, 1.0, 1.0)
        assert any("rough" in str(w.message) for w in rec)


class TestPacketDomain:
    @pytest.mark.parametrize("bad", [(-1.0, 0.05), (1.0, -0.05), (1.0, 0.0)])
    def test_bad_packets_fail_fast(self, bad):
        calls = (
            lambda: adjacent_moments_analytic(bad, (1.0, 0.05)),
            lambda: adjacent_moments_analytic((1.0, 0.05), bad),
            lambda: cross_moments(bad, (1.0, 0.05), 2),
        )
        for call in calls:
            t0 = time.perf_counter()
            with pytest.raises(DomainError):
                call()
            assert time.perf_counter() - t0 < 1.0

    def test_smeared_asymptotic_rejects_offset_centers(self):
        # the asymptotic form has no e^{-i w v0} phases; the numeric moments do
        for spec0, spec1 in (((1.0, 0.05, 0.3), (1.0, 0.05)), ((1.0, 0.05), (1.0, 0.05, -1.0))):
            with pytest.raises(DomainError):
                smeared_asymptotic_moment(spec0, spec1, 20)
