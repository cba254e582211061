import dataclasses
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diamondfield import gaussian
from diamondfield.bogoliubov import planck_occupation
from diamondfield.errors import ConvergenceError, DomainError
from diamondfield.gaussian import (
    WavepacketSpec,
    _same_diamond_occupation,
    build_covariance,
    fig2_sweep,
    joint_variance,
    mode_variance,
    squeezing_witness,
)
from diamondfield.modes import Packet, kg_product

FIG2 = dict(sigma=0.02)


def pair(n0=0, n1=1, om0=1.0, om1=1.0, sigma=0.02):
    return build_covariance([
        WavepacketSpec(n0, om0, sigma),
        WavepacketSpec(n1, om1, sigma),
    ])


class TestSpecs:
    def test_narrowband_contract(self):
        with pytest.raises(DomainError):
            WavepacketSpec(0, 0.05, 0.02)

    def test_positive_parameters(self):
        with pytest.raises(DomainError):
            WavepacketSpec(0, -1.0)
        with pytest.raises(DomainError):
            WavepacketSpec(0, 1.0, 0.0)

    @pytest.mark.parametrize("args", [(0, math.inf), (0, 1.0, math.inf), (0, math.nan),
                                      (0, 1.0, 0.02, math.nan), (0, 1.0, 0.02, -math.inf)])
    def test_finite_parameters(self, args):
        with pytest.raises(DomainError):
            WavepacketSpec(*args)

    def test_kind_contract(self):
        with pytest.raises(DomainError):
            WavepacketSpec(0, 1.0, kind="rindler")


class TestOnePacketType:
    def test_spec_adds_no_fields(self):
        assert dataclasses.fields(WavepacketSpec) == dataclasses.fields(Packet)

    def test_spec_is_a_kg_packet(self):
        # the covariance's modes are the KG engine's packets
        s = WavepacketSpec(0, 1.0)
        res = kg_product(s, s)
        assert abs(res.value - 1.0) <= res.est_error

    def test_covariance_takes_specs_only(self):
        # a plain Packet would skip the narrow-band check
        with pytest.raises(DomainError):
            build_covariance([Packet(0, 1.0)])

    @pytest.mark.parametrize("kwargs", [dict(kind="exterior"), dict(conj=True)])
    def test_spec_contract(self, kwargs):
        with pytest.raises(DomainError):
            WavepacketSpec(0, 1.0, **kwargs)


class TestCovariance:
    def test_minkowski_packet_identity(self):
        cov = build_covariance([WavepacketSpec(0, 1.0, kind="plane")])
        assert np.allclose(cov.matrix, np.eye(2), atol=1e-12)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(DomainError):
            build_covariance([
                WavepacketSpec(0, 1.0, kind="plane"),
                WavepacketSpec(0, 1.0),
            ])

    def test_thermal_diagonal(self):
        cov = build_covariance([WavepacketSpec(0, 1.0, 0.02)])
        nbar = 1.0 / math.expm1(2.0 * math.pi)
        assert abs(cov.matrix[0, 0] - (1.0 + 2.0 * nbar)) < 0.01 * (1.0 + 2.0 * nbar)
        assert cov.matrix[0, 0] >= 1.0  # single-mode diagonals are thermal

    @given(st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=20, deadline=None)
    def test_single_mode_phase_invariance(self, phi):
        cov = build_covariance([WavepacketSpec(0, 1.0, 0.02)])
        v0 = mode_variance(cov, 0, 0.0)
        assert abs(mode_variance(cov, 0, phi) - v0) <= 0.01 * v0

    def test_adjacent_pair_off_diagonal_nonzero(self):
        cov = pair()
        assert np.max(np.abs(cov.matrix[:2, 2:])) > 1e-3

    def test_physicality_reported(self):
        cov = pair()
        assert cov.min_symplectic_eig >= -1e-9

    def test_relabeling_permutes_blocks(self):
        cov = pair(om0=1.0, om1=1.2)
        rev = build_covariance([
            WavepacketSpec(1, 1.2, 0.02),
            WavepacketSpec(0, 1.0, 0.02),
        ])
        P = np.zeros((4, 4))
        P[0, 2] = P[1, 3] = P[2, 0] = P[3, 1] = 1.0
        assert np.allclose(rev.matrix, P @ cov.matrix @ P.T, atol=1e-10)

    def test_adjacent_routes_agree(self):
        kg = build_covariance(
            [WavepacketSpec(0, 1.0, 0.02), WavepacketSpec(1, 1.0, 0.02)],
            adjacent="kg",
        )
        an = pair()
        assert np.max(np.abs(kg.matrix - an.matrix)) < 1e-5

    def test_same_diamond_two_packets(self):
        cov = build_covariance([
            WavepacketSpec(0, 1.0, 0.02),
            WavepacketSpec(0, 1.3, 0.02),
        ])
        # thermal kernel is frequency-diagonal: far-separated profiles decouple
        assert np.max(np.abs(cov.matrix[:2, 2:])) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            build_covariance([])

    @pytest.mark.parametrize("adjacent", ["Analytic", "KG"])
    def test_unknown_adjacent_route_rejected_before_any_moment(self, adjacent, monkeypatch):
        # 'Analytic' used to take the KG route silently, at 4x the est_error
        calls = []
        for name in ("planck_occupation", "adjacent_moments_analytic", "cross_moments"):
            monkeypatch.setattr(gaussian, name, lambda *a, name=name: calls.append(name))
        with pytest.raises(DomainError, match="adjacent must be 'analytic' or 'kg'"):
            build_covariance([WavepacketSpec(0, 1.0, 0.02), WavepacketSpec(1, 1.0, 0.02)], adjacent=adjacent)
        assert calls == []


def _planck_overlap_mpmath(s1, s2):
    """Int dw conj(G1) G2 / (e^{2 pi w} - 1) at 30 digits, on pieces of one
    narrower sigma over both packets' omega0 +- 14 sigma."""
    with mpmath.workdps(30):
        def G(s, w):
            return ((2 * mpmath.pi * s.sigma**2) ** -0.25 * mpmath.expj(-w * s.v0)
                    * mpmath.exp(-((w - s.omega0) ** 2) / (4 * s.sigma**2)))

        def f(w):
            return mpmath.conj(G(s1, w)) * G(s2, w) / mpmath.expm1(2 * mpmath.pi * w)

        step = min(s1.sigma, s2.sigma)
        lo = max(min(s1.omega0 - 14 * s1.sigma, s2.omega0 - 14 * s2.sigma), step)
        hi = max(s1.omega0 + 14 * s1.sigma, s2.omega0 + 14 * s2.sigma)
        pieces = mpmath.linspace(lo, hi, math.ceil((hi - lo) / step) + 1)
        return complex(mpmath.quad(f, pieces))


class TestSameDiamondOccupation:
    """<b1+ b2> within one diamond, the Planck-weighted profile overlap."""

    @pytest.mark.parametrize("s1, s2", [
        (WavepacketSpec(0, 1.0), WavepacketSpec(0, 1.0)),
        (WavepacketSpec(0, 1.0), WavepacketSpec(0, 1.03)),
        (WavepacketSpec(0, 1.0, 0.05, 3.0), WavepacketSpec(0, 1.05, 0.05, -2.0)),
        (WavepacketSpec(0, 1.0, 0.1), WavepacketSpec(0, 1.0, 0.1, 5.0)),
        (WavepacketSpec(0, 1.0), WavepacketSpec(0, 1.3)),
    ])
    def test_matches_mpmath_quadrature(self, s1, s2):
        assert abs(_same_diamond_occupation(s1, s2) - _planck_overlap_mpmath(s1, s2)) <= 1e-15

    @pytest.mark.parametrize("s", [WavepacketSpec(0, 1.0), WavepacketSpec(0, 1.3, 0.05)])
    def test_diagonal_is_planck_occupation(self, s):
        assert abs(_same_diamond_occupation(s, s) - planck_occupation(s.omega0, s.sigma)) <= 1e-15

    def test_high_packets_underflow_without_warning(self):
        # e^{2 pi omega} overflows from omega about 113 up, where np.expm1 warned
        specs = [WavepacketSpec(0, 120.0), WavepacketSpec(0, 120.1), WavepacketSpec(1, 120.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _same_diamond_occupation(*specs[:2]) == 0.0
            cov = build_covariance(specs)
        # the diamond-0 block is the vacuum; the adjacent moments are e^{-pi omega} small
        assert np.array_equal(cov.matrix[:4, :4], np.eye(4)) and np.max(np.abs(cov.matrix - np.eye(6))) < 1e-150


class TestJointVariance:
    def test_vacuum_pair(self):
        cov = build_covariance([
            WavepacketSpec(0, 1.0, kind="plane"),
            WavepacketSpec(0, 1.3, kind="plane"),
        ])
        for sign in (+1, -1):
            for phi in (0.0, 0.7, 2.0):
                assert abs(joint_variance(cov, 0, 1, sign, phi) - 1.0) < 1e-9

    @given(st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=15, deadline=None)
    def test_sum_difference_identity(self, phi):
        cov = pair()
        total = joint_variance(cov, 0, 1, +1, phi) + joint_variance(cov, 0, 1, -1, phi)
        ref = mode_variance(cov, 0, phi) + mode_variance(cov, 1, phi)
        assert abs(total - ref) < 1e-12

    def test_index_symmetry(self):
        cov = pair(om0=1.0, om1=1.2)
        assert abs(
            joint_variance(cov, 0, 1, -1, 0.3) - joint_variance(cov, 1, 0, -1, 0.3)
        ) < 1e-13

    @pytest.mark.parametrize("sign", ["+", "-", 0, 2])
    def test_sign_is_plus_or_minus_one(self, sign):
        with pytest.raises(DomainError):
            joint_variance(pair(), 0, 1, sign)

    def test_same_index_rejected(self):
        with pytest.raises(IndexError):
            joint_variance(pair(), 0, 0, -1, 0.0)

    @pytest.mark.parametrize("i, j", [(1, -1), (-1, 1), (0, 2), (2, 0), (-3, 0)])
    def test_index_out_of_range_rejected(self, i, j):
        # -1 aliases mode 1: it would pass the distinct-modes check and pair
        # the mode with itself, reading entangled with V about 0.5
        cov = pair()
        with pytest.raises(IndexError):
            joint_variance(cov, i, j, -1, 0.0)
        with pytest.raises(IndexError):
            squeezing_witness(cov, i, j)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_fails_fast(self, phi, monkeypatch):
        # fig2_sweep returned NaN rows, joint_variance raised a bare math
        # domain error and mode_variance returned nan
        cov = pair()
        monkeypatch.setattr(gaussian, "build_covariance", None)  # the sweep checks first
        for call in (lambda: fig2_sweep((0.0, phi), [1.0]), lambda: joint_variance(cov, 0, 1, -1, phi),
                     lambda: mode_variance(cov, 0, phi)):
            t0 = time.perf_counter()
            with pytest.raises(DomainError, match="phi must be finite"):
                call()
            assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("i", [-1, 2])
    def test_mode_variance_index_out_of_range_rejected(self, i):
        with pytest.raises(IndexError):
            mode_variance(pair(), i)

    @pytest.mark.parametrize("call", [
        lambda cov: mode_variance(cov, True),  # was the variance of mode 1
        lambda cov: mode_variance(cov, 0.5),  # these three failed inside numpy indexing
        lambda cov: joint_variance(cov, 0.5, 1, 1),
        lambda cov: squeezing_witness(cov, 0.0, 1),
        lambda cov: joint_variance(cov, 0, True, -1),
    ])
    def test_mode_index_must_be_an_integer(self, call):
        with pytest.raises(IndexError, match="must be an integer|integer mode indices"):
            call(pair())


class TestWitness:
    def test_adjacent_entangled(self):
        w = squeezing_witness(pair(), 0, 1)
        assert w["entangled"]
        assert w["V_minus_0"] < 1.0
        assert w["V_plus_half_pi"] < 1.0

    def test_far_pair_not_entangled(self):
        w = squeezing_witness(pair(0, 20), 0, 1)
        assert not w["entangled"]

    def test_translation_invariance(self):
        w01 = squeezing_witness(pair(0, 1), 0, 1)
        w34 = squeezing_witness(pair(3, 4), 0, 1)
        assert abs(w01["V_minus_0"] - w34["V_minus_0"]) < 1e-9


def _min_pt_symplectic_eig(cov):
    """Smallest symplectic eigenvalue of the partial transpose (p2 -> -p2) of a
    two-mode covariance; below 1 iff the pair is entangled (Simon, PRL 84, 2726)."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    return float(np.min(np.abs(np.linalg.eigvals(1j * omega @ flip @ cov.matrix @ flip))))


class TestPartialTranspose:
    def test_witness_implies_ppt_violation(self):
        covs = [pair(om1=om1) for om1 in np.arange(0.9, 1.1001, 0.02)]
        covs += [pair(0, 2), pair(0, 20)]
        flagged = [cov for cov in covs if squeezing_witness(cov, 0, 1)["entangled"]]
        assert flagged
        for cov in flagged:
            assert _min_pt_symplectic_eig(cov) < 1.0


class TestSweep:
    def test_rows_and_phenomenology(self):
        tab = fig2_sweep(omega1_grid=np.arange(0.9, 1.1001, 0.02), **FIG2)
        sel = (tab["phi"] == 0.0) & np.isclose(tab["omega1"], 1.0)
        assert tab["v_minus"][sel][0] < 1.0
        assert len(tab["phi"]) == 2 * 11
