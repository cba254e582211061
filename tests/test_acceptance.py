"""End-to-end acceptance checks at the published tolerances.

Each test states its target in the assertion; the slow smeared-spectrum
integrals run once per module scope.
"""

import math

import numpy as np
import pytest

from diamondfield.bogoliubov import (
    ab_coefficients,
    ab_numeric,
    completeness_check,
    fit_temperature,
    planck_occupation,
    thermal_occupation,
)
from diamondfield.correlations import (
    alpha_beta_adjacent,
    alpha_beta_numeric,
    cross_moments,
    smeared_asymptotic_moment,
)
from diamondfield.detector import identity_residual, response_rate
from diamondfield.gaussian import (
    WavepacketSpec,
    build_covariance,
    fig2_sweep,
    mode_variance,
    squeezing_witness,
)
from diamondfield.specfun import gamma_complex, kummer_m

FREQS = (0.5, 1.0, 2.0)
SIGMA = 0.02


@pytest.fixture(scope="module")
def occupations():
    return {om: thermal_occupation(om, SIGMA) for om in FREQS}


class TestThermalSpectrum:
    def test_planck_within_2_percent(self, occupations):
        for om in FREQS:
            ref = 1.0 / math.expm1(2.0 * math.pi * om)
            assert abs(occupations[om].value - ref) <= 0.02 * ref

    def test_fitted_temperature(self, occupations):
        T = fit_temperature(list(FREQS), [occupations[om].value for om in FREQS])
        assert abs(T - 1.0 / (2.0 * math.pi)) <= 0.02 / (2.0 * math.pi)
        # same number expressed through the observer lifetime 4/a
        lifetime = 4.0
        assert abs(T - 2.0 / (math.pi * lifetime)) <= 0.02 / (2.0 * math.pi)

    def test_packet_average_consistency(self, occupations):
        for om in FREQS:
            ref = planck_occupation(om, SIGMA)
            assert abs(occupations[om].value - ref) <= 0.02 * ref

    def test_est_error_bounds_planck_gap(self, occupations):
        for om in FREQS:
            ref = planck_occupation(om, SIGMA)
            assert abs(occupations[om].value - ref) <= occupations[om].est_error

    def test_est_error_is_tight(self, occupations):
        for om in FREQS:
            res = occupations[om]
            gap = abs(res.value - planck_occupation(om, SIGMA))
            assert gap <= res.est_error <= 1e-6 * res.value


@pytest.fixture(scope="module")
def completeness():
    return {om: completeness_check(om, SIGMA) for om in FREQS}


class TestCompleteness:
    @pytest.mark.parametrize("om", FREQS)
    def test_unit_norm(self, om, completeness):
        res = completeness[om]
        assert abs(res.value - 1.0) <= 0.01

    @pytest.mark.parametrize("om", FREQS)
    def test_est_error_bounds_unit_gap(self, om, completeness):
        res = completeness[om]
        assert abs(res.value - 1.0) <= res.est_error <= 1e-6


class TestCoefficientOracle:
    def test_5x5_grid(self):
        grid = np.linspace(0.3, 5.0, 5)
        for Om in grid:
            for ka in grid:
                A, B = ab_coefficients(float(Om), float(ka))
                An, Bn, est = ab_numeric(float(Om), float(ka))
                assert abs(A - An) <= 1e-6 * abs(A)
                assert abs(B - Bn) <= 1e-6 * abs(B)


class TestAdjacentOracle:
    PAIRS = [(0.5, 1.0), (1.0, 1.3), (1.0, 0.6), (2.0, 2.7), (3.0, 1.4)]

    @pytest.mark.parametrize("Om,Omp", PAIRS)
    def test_closed_vs_quadrature(self, Om, Omp):
        al, be = alpha_beta_adjacent(Om, Omp)
        aln, ben, _ = alpha_beta_numeric(Om, Omp)
        assert abs(al - aln) <= 1e-4 * abs(al)
        assert abs(be - ben) <= 1e-4 * abs(be)


class TestLargeSeparation:
    SPEC = (1.0, 0.05)

    def test_ratio_at_n20(self):
        cm = cross_moments(self.SPEC, self.SPEC, 20)
        mm, _ = smeared_asymptotic_moment(self.SPEC, self.SPEC, 20)
        assert 0.9 <= cm.m_minus.real / mm <= 1.1

    def test_decay_slope(self):
        ns = np.array([10, 14, 20, 28, 40])
        vals = [abs(cross_moments(self.SPEC, self.SPEC, int(n)).m_minus) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
        assert abs(slope + 2.0) <= 0.1

    def test_sign_relation(self):
        cm = cross_moments(self.SPEC, self.SPEC, 20)
        assert abs(cm.m_plus / cm.m_minus + 1.0) < 0.15


class TestDetectorIdentity:
    def test_residual(self):
        res = identity_residual(np.linspace(-3.0, 3.0, 20))
        assert res <= 1e-10


class TestDetectorThermality:
    @pytest.mark.parametrize("E", FREQS)
    def test_detailed_balance(self, E):
        up = response_rate(E).value
        down = response_rate(-E).value
        expected = math.exp(-2.0 * math.pi * E)
        assert abs(up / down - expected) <= 0.02 * expected

    @pytest.mark.parametrize("E", FREQS)
    def test_eps_halving(self, E):
        r1 = response_rate(E, eps=1e-8).value
        r2 = response_rate(E, eps=5e-9).value
        assert abs(r1 - r2) <= 0.02 * abs(r1)


@pytest.fixture(scope="module")
def sweep():
    return fig2_sweep()


class TestFig2Phenomenology:
    def test_dip_below_shot_noise(self, sweep):
        sel = (sweep["phi"] == 0.0) & np.isclose(sweep["omega1"], 1.0)
        assert sweep["v_minus"][sel][0] < 1.0

    def test_phi0_minimum_at_equal_frequencies(self, sweep):
        sel = sweep["phi"] == 0.0
        om = sweep["omega1"][sel]
        vm = sweep["v_minus"][sel]
        assert abs(om[np.argmin(vm)] - 1.0) <= 0.011  # within grid resolution

    def test_phi02pi_minimum_shifts(self, sweep):
        sel = np.isclose(sweep["phi"], 0.2 * math.pi)
        om = sweep["omega1"][sel]
        vm = sweep["v_minus"][sel]
        assert abs(om[np.argmin(vm)] - 1.0) > 0.011

    def test_far_pair_witness_false(self):
        cov = build_covariance([
            WavepacketSpec(0, 1.0, SIGMA),
            WavepacketSpec(20, 1.0, SIGMA),
        ])
        assert not squeezing_witness(cov, 0, 1)["entangled"]


class TestSpecialFunctionIdentities:
    @pytest.mark.parametrize("Om", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_gamma_modulus(self, Om):
        val = abs(gamma_complex(1.0 + 1j * Om)) ** 2 * math.sinh(math.pi * Om) / (math.pi * Om)
        assert abs(val - 1.0) <= 1e-12

    @pytest.mark.parametrize("z_abs", [0.5, 3.0, 8.0, 40.0, 300.0])
    @pytest.mark.parametrize("Om", [0.3, 1.0, 4.0])
    def test_kummer_transformation(self, Om, z_abs):
        for z in (1j * z_abs, -1j * z_abs):
            lhs = kummer_m(1.0 + 1j * Om, 2.0, z)
            rhs = np.exp(z) * kummer_m(1.0 - 1j * Om, 2.0, -z)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("z", [0.7j, -2.0j, 30.0j, 1.0 + 1.0j])
    def test_closed_form(self, z):
        ref = (np.exp(z) - 1.0) / z
        assert abs(kummer_m(1.0, 2.0, z) - ref) <= 1e-12 * abs(ref)


class TestGaussianPhysicality:
    def test_min_symplectic_eig(self):
        sets = [
            [WavepacketSpec(0, 1.0, SIGMA)],
            [WavepacketSpec(0, 1.0, SIGMA), WavepacketSpec(1, 1.0, SIGMA)],
            [WavepacketSpec(0, 1.0, SIGMA), WavepacketSpec(1, 1.3, SIGMA)],
            [WavepacketSpec(0, 1.0, SIGMA), WavepacketSpec(20, 1.0, SIGMA)],
            [WavepacketSpec(0, 1.0, SIGMA), WavepacketSpec(1, 1.0, SIGMA),
             WavepacketSpec(2, 1.0, SIGMA)],
        ]
        for specs in sets:
            cov = build_covariance(specs)
            assert cov.min_symplectic_eig >= -1e-9

    def test_single_mode_phase_independence(self):
        cov = build_covariance([WavepacketSpec(0, 1.0, SIGMA)])
        vals = [mode_variance(cov, 0, phi) for phi in np.linspace(0.0, math.pi, 9)]
        assert (max(vals) - min(vals)) <= 0.01 * min(vals)

    def test_translation_invariance(self):
        c01 = build_covariance(
            [WavepacketSpec(0, 1.0, SIGMA), WavepacketSpec(1, 1.0, SIGMA)],
            adjacent="kg",
        )
        c34 = build_covariance(
            [WavepacketSpec(3, 1.0, SIGMA), WavepacketSpec(4, 1.0, SIGMA)],
            adjacent="kg",
        )
        tol = max(c01.est_error + c34.est_error, 1e-10)
        assert np.max(np.abs(c01.matrix - c34.matrix)) <= 10 * tol
