import math
import time

import numpy as np
import pytest

from diamondfield.errors import DomainError
from diamondfield.modes import (
    DiamondMode,
    ExteriorMode,
    PlaneWave,
    Profile,
    boundary_mask,
    eval_mode,
    gaussian_packet,
    kg_product,
)

KINDS = ("plane", "diamond", "exterior")


class TestModeFunctions:
    def test_plane_wave_value(self):
        u = eval_mode(PlaneWave(k=2.0), np.array([0.0, 1.0]))
        ref = np.exp(-2j * np.array([0.0, 1.0])) / math.sqrt(4.0 * math.pi * 2.0)
        assert np.allclose(u, ref, rtol=0, atol=1e-15)

    def test_diamond_mode_support(self):
        V = np.array([-3.0, 0.0, 1.9, 2.1, 6.0])
        g = eval_mode(DiamondMode(n=0, omega=1.0), V)
        assert np.array_equal(np.abs(g) > 0.0, [False, True, True, False, False])

    def test_shifted_diamond_support(self):
        V = np.array([0.0, 4.0, 5.9, 6.1])
        g = eval_mode(DiamondMode(n=1, omega=1.0), V)
        assert np.array_equal(np.abs(g) > 0.0, [False, True, True, False])

    def test_exterior_support(self):
        V = np.array([-2.5, -1.0, 1.0, 2.5])
        g = eval_mode(ExteriorMode(omega=1.0), V)
        assert np.array_equal(np.abs(g) > 0.0, [True, False, False, True])

    def test_boundary_mask_flags_tips(self):
        V = np.array([-2.0, 0.0, 2.0])
        mask = boundary_mask(DiamondMode(n=0, omega=1.0), V)
        assert np.array_equal(mask, [True, False, True])

    def test_positivity_contracts(self):
        with pytest.raises(DomainError):
            PlaneWave(k=-1.0)
        with pytest.raises(DomainError):
            DiamondMode(n=0, omega=0.0)


class TestPacketNorms:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_norm(self, kind):
        p = gaussian_packet(kind, 1.0)
        res = kg_product(p, p)
        assert abs(res.value - 1.0) < 1e-7

    @pytest.mark.parametrize("kind", KINDS)
    def test_conjugate_negative_norm(self, kind):
        p = gaussian_packet(kind, 1.0)
        res = kg_product(p.conjugate(), p.conjugate())
        assert abs(res.value + 1.0) < 1e-7

    @pytest.mark.parametrize("kind", KINDS)
    def test_mode_conjugate_orthogonal(self, kind):
        p = gaussian_packet(kind, 1.0)
        res = kg_product(p, p.conjugate())
        assert abs(res.value) < 1e-7


class TestOverlaps:
    def test_same_family_frequency_space_oracle(self):
        # overlap of two packets in one diamond is the profile overlap
        p1 = gaussian_packet("diamond", 1.0, 0.05)
        p2 = gaussian_packet("diamond", 1.08, 0.05)
        val = kg_product(p1, p2).value
        s = 0.05
        ref = math.exp(-((1.08 - 1.0) ** 2) / (8.0 * s * s))
        # both packets truncate their frequency support at +-8 sigma
        assert abs(val - ref) < 1e-6

    def test_displaced_packet_phase(self):
        p1 = gaussian_packet("plane", 1.0, 0.02)
        p2 = gaussian_packet("plane", 1.0, 0.02, v0=0.3)
        val = kg_product(p1, p2).value
        # <p1, p2> = Int |G|^2 e^{i w v0} dw, Gaussian closed form
        ref = np.exp(1j * 0.3 - 0.02**2 * 0.3**2 / 2.0)
        assert abs(val - ref) < 1e-6

    def test_disjoint_diamonds_exact_zero(self):
        p1 = gaussian_packet("diamond", 1.0, n=0)
        p2 = gaussian_packet("diamond", 1.0, n=2)
        res = kg_product(p1, p2)
        assert res.value == 0.0
        assert res.est_error == 0.0

    def test_diamond_exterior_orthogonal_supports(self):
        p1 = gaussian_packet("diamond", 1.0, n=0)
        p2 = gaussian_packet("exterior", 1.0)
        assert kg_product(p1, p2).value == 0.0

    def test_conjugation_antisymmetry(self):
        p1 = gaussian_packet("diamond", 1.0, 0.05)
        p2 = gaussian_packet("diamond", 1.2, 0.05)
        lhs = kg_product(p1.conjugate(), p2.conjugate()).value
        rhs = -np.conj(kg_product(p1, p2).value)
        assert abs(lhs - rhs) < 1e-7

    def test_sharp_cross_family_is_smeared(self):
        # sharp modes of different families are auto-wrapped in packets
        val = kg_product(DiamondMode(n=0, omega=1.0), PlaneWave(k=1.5)).value
        assert np.isfinite(val) and abs(val) > 0.0

    def test_sharp_same_family_distributional(self):
        with pytest.raises(DomainError):
            kg_product(DiamondMode(n=0, omega=1.0), DiamondMode(n=0, omega=1.0))

    def test_plane_exterior_fails_fast(self):
        # the exterior-chart quadrature of this pair grows without bound
        plane, ext = gaussian_packet("plane", 1.0), gaussian_packet("exterior", 1.0)
        pairs = [
            (plane, ext),
            (ext.conjugate(), plane),
            (PlaneWave(k=1.0), ExteriorMode(omega=1.0)),
            (ExteriorMode(omega=1.0), PlaneWave(k=1.0)),
            (plane, ExteriorMode(omega=1.0)),
        ]
        for m1, m2 in pairs:
            t0 = time.perf_counter()
            with pytest.raises(DomainError):
                kg_product(m1, m2)
            assert time.perf_counter() - t0 < 1.0


class TestProfile:
    def test_unit_norm_on_nodes(self):
        _, wt, G = Profile(2.0, 0.1, 0.5).nodes(96)
        assert abs(np.sum(wt * np.abs(G) ** 2) - 1.0) < 1e-12

    def test_natural_units(self):
        assert Profile(2.0, 0.1, 0.5).natural(2.0) == Profile(1.0, 0.05, 1.0)

    def test_bad_profile_rejected(self):
        with pytest.raises(DomainError):
            Profile(1.0, 0.0).nodes(16)
