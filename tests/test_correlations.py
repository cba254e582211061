import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev, legendre

from diamondfield import correlations, modes, specfun
from diamondfield._quad import _MAX_NODES, integrate_adaptive
from diamondfield.correlations import (
    _kernel,
    _overlap,
    adjacent_moments_analytic,
    alpha_beta_adjacent,
    alpha_beta_numeric,
    asymptotic_moment,
    cross_moments,
    smeared_asymptotic_moment,
)
from diamondfield.errors import DomainError, PoleError
from diamondfield.modes import _SPAN, _TAIL, Profile, _node_count
from diamondfield.specfun import log_gamma


def chebyshev_oracle(spec0, spec_n, n, deg=(14, 15)):
    """(m_minus, m_plus) from a deg[0] x deg[1] tensor Chebyshev interpolant of
    the sharp alpha_beta_numeric values over the two profiles' frequency
    ranges (omega0 +- 12 sigma, where G falls below e^{-36} of its peak),
    summed over 144 Gauss-Legendre nodes of each range."""
    grids = []
    x, w = legendre.leggauss(144)
    for spec, m in zip((spec0, spec_n), deg):
        prof = Profile(*spec)
        lo, hi = prof.omega0 - 12.0 * prof.sigma, prof.omega0 + 12.0 * prof.sigma
        om, wt = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w
        G = prof.amplitude(om)
        pts = chebyshev.chebpts1(m)
        # E maps values at the Chebyshev points to the interpolant on the nodes
        E = chebyshev.chebvander(x, m - 1) @ np.linalg.inv(chebyshev.chebvander(pts, m - 1))
        grids.append((0.5 * (lo + hi) + 0.5 * (hi - lo) * pts, E, om, wt, G))
    (x0, E0, o0, w0, G0), (x1, E1, _, w1, G1) = grids
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modes, "_RAPIDITY_TOL", 1e-14)  # a reference tighter than the code's
        ab = np.array([[alpha_beta_numeric(W, Wp, n=n)[:2] for Wp in x1] for W in x0])
    # interpolated sharp values, indexed [exterior node, diamond node]
    al, be = (E0 @ ab[:, :, i] @ E1.T for i in (0, 1))
    e = w0 * np.conj(G0) / (2.0 * np.sinh(math.pi * o0))
    p = w1 * G1
    return np.conj(np.conj(e) @ al @ p), np.conj(e @ be @ p)


def root_node_oracle(spec0, spec1, n=1, nodes=128, v_lo=None):
    """(m_minus, m_plus, est_error) of packets in diamonds 0 and n from the
    rapidity integral of cross_moments, with both profiles on their own
    Gauss-Legendre nodes in sqrt(omega) over omega0 +- 12 sigma: those
    integrate the omega^{-1/2} endpoint of a packet that reaches omega = 0 to
    full accuracy, where nodes in omega do not.  For n = 1 the integral runs
    from v_lo, by default the diamond packet's envelope edge."""
    p0, p1 = Profile(*spec0), Profile(*spec1)
    x, w = legendre.leggauss(nodes)
    grids = []
    for prof in (p0, p1):
        lo = math.sqrt(max(prof.omega0 - 12.0 * prof.sigma, 0.0))
        hi = math.sqrt(prof.omega0 + 12.0 * prof.sigma)
        u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        grids.append((u * u, (hi - lo) * w * u, prof.amplitude(u * u)))
    (o0, w0, G0), (o1, w1, G1) = grids
    e = w0 * np.conj(G0) / (2.0 * np.sinh(math.pi * o0))
    lo = v_lo if v_lo is not None else -abs(p1.v0) - _TAIL / p1.sigma if n == 1 else -40.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modes, "_RAPIDITY_TOL", 1e-13)
        mm, mp, err = _overlap(n, o1, w1 * G1, o0, e, lo, 40.0)
    return np.conj(mm), np.conj(mp), err


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

    @pytest.mark.parametrize("Om,Omp", [(500.0, 1.0), (1000.0, 0.5), (460.0, 3.0)])
    def test_high_exterior_frequency_stays_finite(self, Om, Omp):
        # A(W) ~ e^{pi W / 2} overflowed from W ~ 452 (a RuntimeWarning, NaN
        # with warnings off); the moduli follow from |Gamma(iy)|^2 =
        # pi / (y sinh pi y) and |A(W)|^2 = sinh(pi W) / pi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            al, be = alpha_beta_adjacent(Om, Omp)
        with mpmath.workdps(30):
            def modulus(s):
                s = abs(mpmath.mpf(s))
                return mpmath.sqrt(mpmath.sinh(mpmath.pi * Om) / (
                    4 * mpmath.pi * s * mpmath.sinh(mpmath.pi * s) * mpmath.sinh(mpmath.pi * Omp)))
            ra, rb = float(modulus(Om - Omp)), float(modulus(Om + Omp))
        assert abs(abs(al) - ra) <= 1e-12 * ra
        assert abs(abs(be) - rb) <= 1e-12 * rb

    def test_summed_logs_keep_the_product_values(self):
        # below the overflow, one exp of the summed logs agrees with the
        # product e^{log A terms} Gamma(iz) it replaced to 1e-15, on a grid
        # where both factors of the product stay normal doubles
        for Om in (0.3, 1.0, 7.5, 40.0, 100.0, 300.0, 449.0, 450.0):
            for Omp in (0.05, 1.1, 3.3, 41.0, 200.0):
                W = np.array([Om, Omp])
                le, lK = correlations._gamma_logs(W, np.array([Om - Omp, -(Omp + Om)]))
                la, lp = correlations._log_a(W, le)
                with np.errstate(over="ignore", under="ignore"):
                    K = np.exp(lK)
                    pairs = [(np.exp(x), k) for x, k in ((np.conj(la - lp), K[0]), (la - np.conj(lp), -K[1]))]
                for got, (e, k) in zip(alpha_beta_adjacent(Om, Omp), pairs):
                    if not (1e-300 < abs(e) < 1e300 and abs(k) > 1e-300):
                        continue
                    ref = e * k / (2.0 * math.pi)
                    assert abs(got - ref) <= 1e-15 * abs(ref)

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

    def test_second_diamond_diagonal_is_not_a_pole(self):
        # alpha and beta move by ~2.6e-6 relative per 1e-6 in Omega_p here, so
        # the diagonal value is checked against the mean of its two neighbours
        al, be, _ = alpha_beta_numeric(1.0, 1.0, n=2)
        lo, hi = (alpha_beta_numeric(1.0, 1.0 + h, n=2) for h in (-1e-6, 1e-6))
        assert np.isfinite(al) and np.isfinite(be)
        assert abs(al - (lo[0] + hi[0]) / 2.0) <= 1e-9 * abs(al)
        assert abs(be - (lo[1] + hi[1]) / 2.0) <= 1e-9 * abs(be)

    @pytest.mark.parametrize("n", [1, 2, 20])
    def test_kernel_matches_definition(self, n):
        # the one formula both the sharp and the smeared routes integrate
        v = np.linspace(-10.0, 10.0, 41)
        base, L = _kernel(n, v)
        with mpmath.workdps(40):
            for vi, b, l in zip(v, base, L):
                V = 4 * n + 2 * mpmath.tanh(mpmath.mpf(vi) / 2)
                ref_b = mpmath.sech(mpmath.mpf(vi) / 2) ** 2 / (V**2 - 4)
                ref_l = mpmath.log((V + 2) / (V - 2))
                assert abs(b - ref_b) <= 1e-13 * abs(ref_b)
                assert abs(l - ref_l) <= 1e-13 * abs(ref_l)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_phase_rate_bound(self, n):
        # _overlap sizes the rapidity passes by |dL/dv| <= 1/(4n(n - 1)) for
        # n >= 2 (sups 0.072, 0.029, 0.0025 and 1.56e-4) and <= 1 for n = 1,
        # reached at the tip the first diamond shares with the exterior
        bound = mpmath.mpf(1) if n == 1 else mpmath.mpf(1) / (4 * n * (n - 1))
        with mpmath.workdps(40):
            for vi in np.linspace(-40.0, 40.0, 1601):
                V = 4 * n + 2 * mpmath.tanh(mpmath.mpf(vi) / 2)
                rate = 4 * mpmath.sech(mpmath.mpf(vi) / 2) ** 2 / ((V - 2) * (V + 2))
                assert rate <= bound if n == 1 else rate < bound

    def test_numeric_requires_n_ge_1(self):
        with pytest.raises(DomainError):
            alpha_beta_numeric(1.0, 1.3, n=0)


def unfactored_rapidity_integral(kernel, om_p, c_p, om_x, c_x, lo, hi, rate):
    """modes._rapidity_integral with one np.exp per node and frequency on both
    sides, on the same panels; returns (I, J, doubling difference)."""
    def f(v, *grid):
        base, L = kernel(v)
        P = base * (np.exp(-1j * np.multiply.outer(v, om_p)) @ c_p)
        X = np.exp(-1j * np.multiply.outer(L, om_x)) @ c_x
        return np.stack([P * X, -P * np.conj(X)]), 0.0

    est_freq = float(np.max(om_p) + rate * np.max(om_x))
    val, err = integrate_adaptive(f, lo, hi, modes._RAPIDITY_TOL, est_freq=est_freq)
    return val[0], val[1], err


def _count_kernel_nodes(monkeypatch):
    """Node count of each rapidity-integrand evaluation in correlations."""
    sizes = []

    def counting(n, v):
        sizes.append(np.size(v))
        return _kernel(n, v)

    monkeypatch.setattr(correlations, "_kernel", counting)
    return sizes


def beta_adjacent_diagonal(w):
    """beta_1(w, w) from the adjacent closed form in mpmath at 30 digits,
    -A(w) Gamma(-2iw) / (2 pi conj(A(w))) with A(w) = sqrt(w) 2^{iw} /
    Gamma(1 - iw): alpha_beta_adjacent refuses the diagonal, where alpha has
    its pole and beta none."""
    with mpmath.workdps(30):
        A = mpmath.sqrt(w) * mpmath.power(2, 1j * w) / mpmath.gamma(1 - 1j * w)
        return complex(-A * mpmath.gamma(-2j * w) / (2 * mpmath.pi * mpmath.conj(A)))


class TestCrossMoments:
    @pytest.mark.parametrize("n,limit", [(20, 60_000), (1, 250_000)])
    def test_phases_factor_over_panels(self, n, limit, monkeypatch):
        # both sides take m = 96 phases per panel and evaluation (the diamond
        # side 16 more per evaluation): 57,792 at n = 20 and 217,920 at n = 1,
        # where one exterior phase per node and frequency made them 468,192
        # (4,560 nodes) and 1,829,280
        phases, phase = [0], modes._phase

        def counting(x):
            phases[0] += np.size(x)
            return phase(x)

        monkeypatch.setattr(modes, "_phase", counting)
        cross_moments((1.0, 0.02), (1.0, 0.02), n)
        assert phases[0] <= limit

    def test_separated_moments_on_few_grid_nodes(self, monkeypatch):
        # the first trapezoid step is 1/2 at n = 10, so 161 + 160 kernel
        # nodes, where Gauss-Legendre passes of 768 + 1,536 took 2,304
        sizes = _count_kernel_nodes(monkeypatch)
        cross_moments((1.0, 0.02), (1.0, 0.02), 10)
        assert sum(sizes) <= 400

    def test_separated_passes_at_exterior_phase_rate(self, monkeypatch):
        # the passes start at max w + max w / (4n(n - 1)) over |v| <= 40, not
        # at the sum of both packets' top frequencies: 768 + 1,536 kernel
        # nodes at n = 20, where they took 1,520 + 3,040
        sizes = _count_kernel_nodes(monkeypatch)
        cross_moments((1.0, 0.02), (1.0, 0.02), 20)
        assert sum(sizes) <= 2_304

    @pytest.mark.parametrize("n,limit", [(20, 10_000), (1, 100_000)])
    def test_phases_on_lattice_tables(self, n, limit, monkeypatch):
        # the panel midpoints come from two tables of ~sqrt(panels) rows and
        # the exterior sum takes one row per lattice point j / max w in use:
        # 7,872 phases at n = 20 and 77,568 at n = 1, where a row per panel on
        # both sides made them 57,792 and 217,920
        sizes, phase = [], modes._phase
        monkeypatch.setattr(modes, "_phase", lambda x: sizes.append(np.size(x)) or phase(x))
        cross_moments((1.0, 0.02), (1.0, 0.02), n)
        assert sum(sizes) <= limit

    def test_one_overlap_on_node_count_nodes(self, monkeypatch):
        # the integral starts at the higher envelope edge, where both sums are
        # resolved on m = _node_count nodes: one _overlap call, where an m_x
        # rule took (m, 730) and then (m, 726) nodes for a node term
        s0, s1 = (1.0, 0.1), (1.0, 0.01)
        sizes, overlap = [], correlations._overlap

        def counting(n, om_d, p, om_x, *rest):
            sizes.append((om_d.size, om_x.size))
            return overlap(n, om_d, p, om_x, *rest)

        monkeypatch.setattr(correlations, "_overlap", counting)
        cross_moments(s0, s1, 1)
        m = _node_count(Profile(*s0), Profile(*s1))
        assert sizes == [(m, m)]

    @pytest.mark.parametrize("s0,s1,n", [
        *(pytest.param((1.0, 0.02), (1.0, 0.02), n, id=f"equal-{n}") for n in (1, 2, 3, 10, 20, 40)),
        *(pytest.param((1.0, 0.02, 100.0), (1.0, 0.02, -100.0), n, id=f"offset-v0-{n}") for n in (1, 2)),
        *(pytest.param((1.0, 0.1), (0.5, 0.1), n, id=f"wide-{n}") for n in (1, 2)),
    ])
    def test_est_error_bounds_gap_to_unfactored_phases(self, s0, s1, n, monkeypatch):
        sizes = _count_kernel_nodes(monkeypatch)
        cm = cross_moments(s0, s1, n)
        factored, sizes[:] = list(sizes), []
        monkeypatch.setattr(correlations, "_rapidity_integral", unfactored_rapidity_integral)
        ref = cross_moments(s0, s1, n)
        # one call on the 2N + 1 nodes of the first two levels, then 2N, 4N,
        # ... new midpoints per halving: each node of the final grid is
        # evaluated once (at n = 1 the cut terms evaluate the kernel after that)
        N = factored[0] // 2
        grid = [2 * N + 1] + [(2 * N) << i for i in range(len(factored) - 1)]
        k = next((i for i, (a, b) in enumerate(zip(factored, grid)) if a != b), len(factored))
        assert k >= 1 and (n == 1 or k == len(factored))
        assert abs(cm.m_minus - ref.m_minus) <= cm.est_error
        assert abs(cm.m_plus - ref.m_plus) <= cm.est_error

    @pytest.mark.parametrize("s0,s1", [
        pytest.param((1.0, 0.02), (1.0, 0.02), id="equal"),
        pytest.param((1.0, 0.02, 100.0), (1.0, 0.02, -100.0), id="offset-v0"),
    ])
    def test_est_error_covers_taylor_remainder(self, s0, s1, monkeypatch):
        # a Taylor order cut at 3e-6 leaves m_minus 3.4e-10 / 1.4e-14 off,
        # 10x / 11x the doubling difference and rounding floor alone
        monkeypatch.setattr(modes, "_TAYLOR_TOL", 3e-6)
        cm = cross_moments(s0, s1, 1)
        monkeypatch.setattr(correlations, "_rapidity_integral", unfactored_rapidity_integral)
        ref = cross_moments(s0, s1, 1)
        assert abs(cm.m_minus - ref.m_minus) <= cm.est_error
        assert abs(cm.m_plus - ref.m_plus) <= cm.est_error

    @pytest.mark.parametrize("s0,s1,n", [
        *(pytest.param((1.0, 0.02), (1.0, 0.02), n, id=f"equal-{n}") for n in (1, 2, 20)),
        pytest.param((1.0, 0.05), (1.2, 0.05), 1, id="offset-omega-1"),
    ])
    def test_est_error_bounds_gap_to_wide_span_reference(self, s0, s1, n):
        # a profile cut at 8 sigma, where G is still e^{-16} of its peak, left
        # m_minus 1.6e-14 off at equal-20 against an estimate of 2.3e-20
        cm = cross_moments(s0, s1, n)
        mm, mp, _ = root_node_oracle(s0, s1, n, nodes=256)
        assert abs(cm.m_minus - mm) <= cm.est_error
        assert abs(cm.m_plus - mp) <= cm.est_error

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

    def test_adjacent_routes_agree_offset_centers(self):
        # the v0 phases enter the pole term through q(W) = conj(G1(W)) / 2 pi
        s0, s1 = (1.0, 0.05, 0.3), (1.0, 0.05, -0.2)
        kg = cross_moments(s0, s1, 1)
        an = adjacent_moments_analytic(s0, s1)
        assert abs(kg.m_minus - an.m_minus) <= 1e-5 * abs(kg.m_minus)

    def test_adjacent_beta_matches_closed_form(self):
        # m_plus has no pole, so the closed form's tensor quadrature is exact
        spec = (1.0, 0.05)
        kg = cross_moments(spec, spec, 1)
        an = adjacent_moments_analytic(spec, spec)
        assert abs(kg.m_plus - an.m_plus) <= 1e-10 * abs(an.m_plus)

    @pytest.mark.parametrize("n", [2, 5, 20])
    @pytest.mark.parametrize("s0,s1", [
        ((1.0, 0.02), (1.0, 0.02)),
        ((1.0, 0.05), (1.2, 0.05)),
        ((1.0, 0.05, 0.3), (1.0, 0.05, -0.2)),
    ], ids=["equal", "offset-omega", "offset-v0"])
    def test_matches_chebyshev_oracle(self, s0, s1, n):
        cm = cross_moments(s0, s1, n)
        mm, mp = chebyshev_oracle(s0, s1, n)
        assert abs(cm.m_minus - mm) <= 1e-8 * abs(mm)
        assert abs(cm.m_plus - mp) <= 1e-8 * abs(mp)

    @pytest.mark.parametrize("n,bound", [(2, 1.2e-17), (20, 1.8e-19)])
    def test_est_error_tight_at_default_sigma(self, n, bound):
        # 5.6e-18 and 8.9e-20 from the rapidity integral alone; a worst-case
        # bound on the rounding of every node once made them 3.8e-16 and 2.1e-18
        assert cross_moments((1.0, 0.02), (1.3, 0.02), n).est_error <= bound

    @pytest.mark.parametrize("n", [1, 2, 20])
    def test_equal_centred_profiles_give_real_m_minus(self, n):
        cm = cross_moments((1.0, 0.05), (1.0, 0.05), n)
        assert abs(cm.m_minus.imag) <= 1e-12 * abs(cm.m_minus)

    def test_moments_fall_off(self):
        m1 = abs(cross_moments((1.0, 0.05), (1.0, 0.05), 1).m_minus)
        m5 = abs(cross_moments((1.0, 0.05), (1.0, 0.05), 5).m_minus)
        assert m5 < m1

    def test_requires_separation(self):
        with pytest.raises(DomainError):
            cross_moments((1.0, 0.05), (1.0, 0.05), 0)

    def test_packet_reaching_zero_on_root_nodes(self):
        # (0.5, 0.1) reaches omega = 0; on nodes in omega m_plus was 1.1e-4 off
        s0, s1 = (1.0, 0.1), (0.5, 0.1)
        _, mp, _ = root_node_oracle(s0, s1, nodes=256)
        assert abs(cross_moments(s0, s1, 1).m_plus - mp) <= 1e-13 * abs(mp)

    def test_far_off_centre_packet_resolved(self):
        # 96 nodes no longer resolved e^{-i w v} at v0 = 400 and gave
        # 6.3e-6 + 5.7e-5i; the node count now grows with sigma |v0|
        s0, s1 = (1.0, 0.05), (1.0, 0.05, 400.0)
        m = 96 + math.ceil(12.8 * 0.05 * 400.0)
        mm, mp, _ = root_node_oracle(s0, s1, nodes=2 * m)
        cm = cross_moments(s0, s1, 1)
        assert abs(cm.m_minus - mm) <= 1e-15
        assert abs(cm.m_plus - mp) <= 1e-15

    @pytest.mark.parametrize("s0,s1,nodes", [
        ((1.0, 0.1), (1.0, 0.01), 1536),
        ((2.0, 0.2), (2.0, 0.02), 1536),
        ((1.0, 0.1), (1.0, 0.02), 768),
        ((1.0, 0.05), (1.0, 0.02), 512),
        ((4.18, 0.237, 1.43), (3.59, 0.0265, 17.9), 1536),
        ((0.8, 0.1), (1.0, 0.02), 768),
    ])
    def test_wide_exterior_packet_resolved(self, s0, s1, nodes):
        # at n = 1 the exterior sum must resolve e^{-i w L} out to the diamond
        # packet's edge |L| ~ |v0| + 5.5 / sigma; on 96 (103) nodes the 1st,
        # 2nd, 3rd and 5th pairs were 2.9e-3, 1.2e-4, 1.7e-5 and 1.7e-7 off,
        # with est_error below 7e-15.  nodes is at least twice cross_moments'
        cm = cross_moments(s0, s1, 1)
        mm, mp, _ = root_node_oracle(s0, s1, nodes=nodes)
        assert abs(cm.m_minus - mm) <= cm.est_error
        assert abs(cm.m_plus - mp) <= cm.est_error

    @pytest.mark.parametrize("spec", [(1.0, 0.2), (1.0, 0.1)])
    def test_est_error_bounds_infrared_cut(self, spec):
        # below both envelope edges the two omega = 0 tails multiply into
        # c / |v|, c = |G0(0) G1(0)| / 4pi, so doubling the lower limit moves
        # the moments by about c ln 2: 3.9e-7 at (1.0, 0.2), 4e-23 at (1.0, 0.1)
        p = Profile(*spec)
        c = abs(p.amplitude(0.0)) ** 2 / (4.0 * math.pi)
        cm = cross_moments(spec, spec, 1)
        mm, mp, _ = root_node_oracle(spec, spec, nodes=256, v_lo=-2.0 * _TAIL / p.sigma)
        assert cm.est_error >= c * math.log(2.0)
        assert abs(cm.m_minus - mm) <= cm.est_error
        assert abs(cm.m_plus - mp) <= cm.est_error


def _route_sweep_pairs(seed=20261019, count=24):
    """count (p0, p1) packet pairs over the domain both adjacent routes serve:
    sigma log-uniform on [0.01, 0.3] with the widths more than 10% apart,
    omega0 uniform on [max(12 sigma, 0.3), that + 3] and v0 on [-30, 30]."""
    rng, pairs = np.random.default_rng(seed), []
    while len(pairs) < count:
        sigma = np.exp(rng.uniform(math.log(0.01), math.log(0.3), 2))
        lo = np.maximum(12.0 * sigma, 0.3)
        omega0, v0 = rng.uniform(lo, lo + 3.0), rng.uniform(-30.0, 30.0, 2)
        if max(sigma) / min(sigma) > 1.1:
            pairs.append(tuple((float(omega0[i]), float(sigma[i]), float(v0[i])) for i in range(2)))
    return pairs


class TestRouteSweep:
    @pytest.mark.parametrize("s0,s1", _route_sweep_pairs())
    def test_routes_agree_within_their_errors(self, s0, s1):
        kg, an = cross_moments(s0, s1, 1), adjacent_moments_analytic(s0, s1)
        bound = kg.est_error + an.est_error
        assert abs(kg.m_minus - an.m_minus) <= bound
        assert abs(kg.m_plus - an.m_plus) <= bound

    def test_cut_terms_leave_est_error_small(self):
        # the terms for the envelope cuts must not make the bound above
        # vacuous: the largest est_error over the sweep is about 1e-14
        assert max(cross_moments(s0, s1, 1).est_error for s0, s1 in _route_sweep_pairs()) < 1e-13


def unfactored_root_node_oracle(spec0, spec1, n):
    """root_node_oracle on 256 nodes through unfactored_rapidity_integral: one
    np.exp per node and frequency, nothing shared with the phase tables."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlations, "_rapidity_integral", unfactored_rapidity_integral)
        return root_node_oracle(spec0, spec1, n, nodes=256)


class TestSeparatedRouteSweep:
    """cross_moments(..., n >= 2) against unfactored_root_node_oracle on the
    draws of _route_sweep_pairs(20261020, 24), at n = 2, 3, 7, 20 in turn,
    and on the first run's four misses as explicit cases: where the packet
    sums P and X cancel, they round on the scale of sum|c|, not of |P X|.  A
    floor of eps sum|base P X| read 2.8e-25, 6.1e-25, 1.6e-25 and 6.2e-24
    there, against gaps of 2.6e-24, 8.3e-24, 2.2e-24 and 2.1e-23; the oracle
    on cross_moments' own nodes agreed within 5.3e-25."""

    @pytest.mark.parametrize("s0,s1,n", [
        *((s0, s1, (2, 3, 7, 20)[i % 4]) for i, (s0, s1) in enumerate(_route_sweep_pairs(20261020, 24))),
        pytest.param((4.8938621465111325, 0.1927142385592486, 12.814831768600143),
                     (1.4180063626220407, 0.015772827369646168, 23.777206332816327), 2, id="miss-0"),
        pytest.param((2.6485023388695654, 0.11678939638452634, -17.956278963816636),
                     (1.8122023080696161, 0.13112344895138975, -26.782538882185797), 3, id="miss-13"),
        pytest.param((3.5259952947959823, 0.1918520229854924, -23.83433409873363),
                     (1.237325460800966, 0.04332342395570035, 4.136640897842611), 20, id="miss-15"),
        pytest.param((1.3108335569678196, 0.10720705057283825, -29.71546094979825),
                     (2.2419168891322667, 0.014613224214950017, -27.34478668694937), 20, id="miss-19"),
    ])
    def test_est_error_bounds_gap_to_oracle(self, s0, s1, n):
        cm = cross_moments(s0, s1, n)
        mm, mp, _ = unfactored_root_node_oracle(s0, s1, n)
        assert abs(cm.m_minus - mm) <= cm.est_error
        assert abs(cm.m_plus - mp) <= cm.est_error


# est_error of adjacent_moments_analytic at sigma = 0.02 from its step-doubling
# gap and Gamma floor alone, against gaps to the 30-digit lattice of 2.8e-19 to
# 1.0e-17; a worst-case bound on the rounding of every node once made these
# 6.98e-16, 2.04e-14 and 2.06e-16
ADJACENT_AT_DEFAULT_SIGMA = {
    ((1.0, 0.02), (0.5, 0.02)): 5.78e-17,
    ((1.0, 0.02), (1.0, 0.02)): 2.36e-15,
    ((1.0, 0.02), (1.5, 0.02)): 2.36e-17,
}


class TestAdjacentLattice:
    @pytest.mark.parametrize("s0,s1", [
        ((1.0, 0.05), (1.0, 0.05)),
        ((1.0, 0.05), (1.2, 0.05)),
        ((1.0, 0.05), (2.0, 0.05)),
        ((1.0, 0.05, 0.3), (1.0, 0.05, -0.2)),
        ((1.0, 0.02), (0.93, 0.02)),
        ((1.0, 0.02), (1.5, 0.02)),
        ((1.0, 0.05), (1.0, 0.05, 100.0)),
        ((1.0, 0.05, -30.0), (1.2, 0.05, 30.0)),
        ((1.0, 0.02), (0.5, 0.1)),
        ((0.4272, 0.05), (0.7598, 0.1)),
        ((0.4272, 0.05, 1.73), (0.7598, 0.1, 1.38)),
    ])
    def test_est_error_bounds_gap_to_rapidity_route(self, s0, s1, monkeypatch):
        # both routes integrate each profile over omega0 +- 12 sigma; the
        # estimates must cover the lattice's and the quadrature's own errors
        an = adjacent_moments_analytic(s0, s1)
        monkeypatch.setattr(modes, "_RAPIDITY_TOL", 1e-13)
        kg = cross_moments(s0, s1, 1)
        bound = an.est_error + kg.est_error
        assert abs(an.m_minus - kg.m_minus) <= bound
        assert abs(an.m_plus - kg.m_plus) <= bound

    @pytest.mark.parametrize("s0,s1", [
        ((1.0, 0.02), (0.93, 0.02)),
        ((1.0, 0.02), (1.0, 0.02)),
        ((1.0, 0.02), (1.5, 0.02)),
        ((1.0, 0.05), (1.0, 0.05, 100.0)),
        ((1.0, 0.05, -30.0), (1.2, 0.05, 30.0)),
        ((1.0, 0.02), (0.5, 0.02)),
    ])
    def test_est_error_small_for_narrow_packets(self, s0, s1):
        # the lattice step and the node count follow |v0|, which sets how fast
        # the phases e^{-i W v0} turn; at the default sigma est_error stays
        # within 2x of ADJACENT_AT_DEFAULT_SIGMA
        before = ADJACENT_AT_DEFAULT_SIGMA.get((s0, s1))
        assert adjacent_moments_analytic(s0, s1).est_error <= (1e-9 if before is None else 2.0 * before)

    @pytest.mark.parametrize("s0,s1,old_minus,old_plus", [
        ((1.0, 0.1), (0.5, 0.1), 1.30e-7, 1.47e-7),
        ((1.0, 0.1), (0.3, 0.1), 7.40e-6, 7.40e-6),
        ((0.3, 0.1), (1.0, 0.1), 8.37e-6, 8.38e-6),
        ((1.0, 0.1, 0.4), (0.5, 0.1, -0.3), 1.34e-7, 1.46e-7),
    ])
    def test_wide_packets_match_root_node_oracle(self, s0, s1, old_minus, old_plus):
        # these packets reach omega = 0; old_* are the gaps to the oracle of the
        # closed-form route on Gauss-Legendre nodes in omega that this one replaced
        an = adjacent_moments_analytic(s0, s1)
        mm, mp, err = root_node_oracle(s0, s1)
        assert abs(an.m_minus - mm) <= min(an.est_error + err, old_minus)
        assert abs(an.m_plus - mp) <= min(an.est_error + err, old_plus)
        # a bound on an 8-12 sigma band once made this 6.7e-8 to 2.6e-6
        assert an.est_error <= 1e-9

    @pytest.mark.parametrize("spec", [(3.0, 0.25), (1.2, 0.1)])
    def test_lattice_from_zero_is_finite(self, spec, monkeypatch):
        # omega0 = 12 sigma puts the lower end of the lattice at omega = 0
        an = adjacent_moments_analytic(spec, spec)
        monkeypatch.setattr(modes, "_RAPIDITY_TOL", 1e-13)
        kg = cross_moments(spec, spec, 1)
        assert math.isfinite(an.est_error)
        assert abs(an.m_minus - kg.m_minus) <= an.est_error + kg.est_error
        assert abs(an.m_plus - kg.m_plus) <= an.est_error + kg.est_error

    @pytest.mark.parametrize("bad", [(1.0, math.inf), (1.0, 0.02, math.nan), (1.0, 0.02, math.inf)])
    def test_non_finite_packets_raise_domain_error(self, bad):
        # the node count and the lattice step read sigma |v0|: check first
        with pytest.raises(DomainError):
            adjacent_moments_analytic((1.0, 0.05), bad)

    @pytest.mark.parametrize("s0,s1", [((1.0, 0.2), (1.0, 0.2)), ((1.0, 0.15), (0.7, 0.15))])
    def test_est_error_shows_infrared_log(self, s0, s1):
        # where G0(0) G1(0) != 0 the residue term conj(G0 G1) / (4 sinh pi W) of
        # m_minus grows like c / W toward W = 0, so the moment depends on the
        # lowest node like c ln(1 / W_min); the lattice at 2h moves it by c ln 4
        c = abs(Profile(*s0).amplitude(0.0) * Profile(*s1).amplitude(0.0)) / (4.0 * math.pi)
        an = adjacent_moments_analytic(s0, s1)
        assert an.est_error >= c
        # the oracle's nodes start at another lowest frequency, so its gap is
        # that log too, which est_error must bound
        mm, mp, err = root_node_oracle(s0, s1)
        assert abs(an.m_minus - mm) <= an.est_error + err
        assert abs(an.m_plus - mp) <= an.est_error + err

    @pytest.mark.parametrize("s0,s1", [((0.5, 0.05), (0.6, 0.05)), ((1.2, 0.1), (1.2, 0.1))])
    def test_est_error_tight_where_infrared_term_vanishes(self, s0, s1):
        # ranges that reach omega = 0 with G(0) ~ e^{-25} or less; a Gauss-
        # Legendre m_plus on n and n - 4 nodes read 7.8e-10 and 1.1e-11 here
        an = adjacent_moments_analytic(s0, s1)
        mm, mp, err = root_node_oracle(s0, s1)
        assert an.est_error <= 1e-13
        assert abs(an.m_minus - mm) <= an.est_error + err
        assert abs(an.m_plus - mp) <= an.est_error + err

    def test_dense_kernel_budget_fails_fast(self, bounded):
        # off-centre packets reaching omega = 0 shrink the step h, and the two
        # full kernels of the sqrt(W) lattices grow as N0 N1: 8.3M entries
        # here, over _quad._MAX_NODES, where 0.86M at v0 = +-300 pass
        name, seconds, _ = bounded("from diamondfield.correlations import adjacent_moments_analytic",
                                   "adjacent_moments_analytic((1.0, 0.1, 1000.0), (1.0, 0.1, -1000.0))")
        assert name == "DomainError" and seconds < 1.0
        name, _, _ = bounded("from diamondfield.correlations import adjacent_moments_analytic",
                             "adjacent_moments_analytic((1.0, 0.1, 300.0), (1.0, 0.1, -300.0))")
        assert name.startswith("CrossMoments(")


def _product_at(q, d, om):
    """Profile._at as the product g e^{-i om v0}, also at v0 = 0."""
    return (2.0 * math.pi * q.sigma**2) ** (-0.25) * np.exp(-(d**2) / (4.0 * q.sigma**2)) * np.exp(-1j * om * q.v0)


def _per_lattice_reference(p0, p1):
    """_adjacent_lattice as it was before its four lattices became one index
    array: a helper per lattice, the steps joined by concatenation and split
    again, one exp per weight, and the profiles as products.  The reference
    for the bits of the one-pass form."""
    p = 1 if min(q.omega0 - _SPAN * q.sigma for q in (p0, p1)) > 0.0 else 2
    V = abs(p0.v0) + abs(p1.v0)
    c = [1.0 + V * q.sigma / (2.0 * math.pi) for q in (p0, p1)]
    s = min(3.0 * q.sigma / (8.0 * cq) if p == 1 else q.sigma / (4.0 * math.sqrt(q.omega0 + _SPAN * q.sigma) * cq)
            for q, cq in zip((p0, p1), c))

    def lattice(q, h, offset):
        ends = (max(q.omega0 - _SPAN * q.sigma, 0.0), q.omega0 + _SPAN * q.sigma, q.omega0)
        lo, hi, r = ends if p == 1 else map(math.sqrt, ends)
        k = np.arange(math.ceil(lo / h - offset), math.floor(hi / h - offset) + 1)
        t = (k + offset) * h
        d = ((k + offset) - r / h) * h
        return k, t, t if p == 1 else t * t, d if p == 1 else d * (t + r), np.full(k.size, p * h)

    grids = [(h, lattice(p0, h, 0.5), lattice(p1, h, 0.0)) for h in (s, 2.0 * s)]
    n0, n1 = grids[0][1][0].size, grids[0][2][0].size
    if p == 2 and not n0 * n1 <= _MAX_NODES:
        raise DomainError("over the budget")
    if p == 1:
        z = [(np.array([[k[0] - j[-1] - 0.5], [j[0] + k[0] + 0.5]]) + np.arange(j.size + k.size - 1)) * h
             for h, (j, *_), (k, *_) in grids]
    else:
        z = [np.stack([Wp - W[:, None], Wp + W[:, None]]) for _, (*_, W, _, _), (*_, Wp, _, _) in grids]
    (t, W, d0, ph0), (tp, Wp, d1, ph1) = ([np.concatenate(f) for f in zip(*(g[i][1:] for g in grids))] for i in (1, 2))
    le, lK = correlations._gamma_logs(np.concatenate([W, Wp]), np.concatenate([a.ravel() for a in z]))
    l0, l1 = le[:W.size], le[W.size:]
    A1 = _product_at(p1, np.concatenate([d1, d0 + (p0.omega0 - p1.omega0)]), np.concatenate([Wp, W]))
    f0, f1 = (1.0 / np.sqrt(t), 1.0 / np.sqrt(tp)) if p == 1 else (1.0, np.where(tp == 0.0, 0.5, 1.0))
    x = ph0 * W * f0 * np.conj(_product_at(p0, d0, W)) * np.exp(l0 - np.log(2.0 * correlations._sinh_pi(W)))
    y = ph1 * f1 * np.conj(A1[:Wp.size]) * np.exp(-l1)
    res = np.conj(A1[Wp.size:]) * np.exp(-l0) / (2.0 * np.sqrt(W))
    minus, plus = [], []
    for x, y, res, K, zh in zip(np.split(x, [n0]), np.split(y, [n1]), np.split(res, [n0]),
                                np.split(np.exp(lK), [z[0].size]), z):
        kT, kH = K.reshape(zh.shape)
        ay = np.abs(y)
        if p == 1:
            Tp = np.correlate(kT, np.conj(y))[::-1], np.correlate(np.abs(kT), ay)[::-1]
            Hp = np.correlate(kH, np.conj(y)), np.correlate(np.abs(kH), ay)
        else:
            Tp, Hp = (kT @ y, np.abs(kT) @ ay), (kH @ y, np.abs(kH) @ ay)
        minus.append(correlations._lattice(x, *Tp, res))
        plus.append(correlations._lattice(-np.conj(x), *Hp, 0.0))
    return minus + plus + [W[0]]


def _per_lattice_moments(spec0, spec1):
    """adjacent_moments_analytic over _per_lattice_reference, its est_error
    from the product-form amplitudes at omega = 0."""
    p0, p1 = Profile(*spec0).checked(), Profile(*spec1).checked()
    (mm, size_m), (mm2, _), (mp, size_p), (mp2, _), w_min = _per_lattice_reference(p0, p1)
    tops = [p.omega0 + _SPAN * p.sigma for p in (p0, p1)]
    rel = 3.0 * correlations._lg_rel(sum(tops))
    c = abs(_product_at(p0, -p0.omega0, 0.0) * _product_at(p1, -p1.omega0, 0.0)) / (4.0 * math.pi)
    err = max(abs(mm - mm2) + rel * size_m, abs(mp - mp2) + rel * size_p)
    return correlations.CrossMoments(mm, mp, err + c * math.log(max(tops) / w_min))


def _bits(*values):
    return np.array(values, dtype=complex).view(np.uint64).tolist()


def _lattice_bit_pairs():
    """The pairs the one-pass lattice must reproduce bit for bit: the 101
    default fig2 pairs, pairs on the sqrt(W) lattices (sigma 0.1 and 0.3,
    omega0 - 12 sigma <= 0), pairs off v0 = 0 or of mixed sigma, and a
    seeded random sweep over all of them."""
    pairs = [((1.0, 0.02), (0.5 + i * 0.01, 0.02)) for i in range(101)]
    pairs += [((w0, sig), (w1, sig)) for sig in (0.1, 0.3) for w0 in (0.4, 1.0, 3.0) for w1 in (0.3, 1.2, 2.6)
              if min(w0, w1) - _SPAN * sig <= 0.0]
    pairs += [((1.0, 0.05, 0.3), (1.0, 0.05, -0.2)), ((1.0, 0.05, -30.0), (1.2, 0.05, 30.0)),
              ((1.0, 0.02), (0.5, 0.1)), ((0.4272, 0.05, 1.73), (0.7598, 0.1, 1.38)),
              ((1.0, 0.1, 0.4), (0.5, 0.1, -0.3)), ((2.0, 0.2, -0.0), (2.1, 0.2, 0.0))]
    rng = np.random.default_rng(20261022)
    for _ in range(40):
        (w0, w1), (s0, s1) = rng.uniform(0.2, 4.0, 2), rng.uniform(0.01, 0.4, 2)
        v0, v1 = rng.normal(0.0, 3.0, 2) * (rng.random(2) < 0.3)
        pairs.append(((w0, s0, v0), (w1, s1, v1)))
    return pairs


class TestOnePassLattice:
    def test_bits_match_the_per_lattice_reference(self):
        pairs = _lattice_bit_pairs()
        assert sum(min(q[0] - _SPAN * q[1] for q in pair) <= 0.0 for pair in pairs) >= 30  # p = 2
        for s0, s1 in pairs:
            p0, p1 = Profile(*s0), Profile(*s1)
            got, ref = correlations._adjacent_lattice(p0, p1), _per_lattice_reference(p0, p1)
            assert _bits(*(x for m in got[:4] for x in m), got[4]) == _bits(*(x for m in ref[:4] for x in m), ref[4])
            an, old = adjacent_moments_analytic(s0, s1), _per_lattice_moments(s0, s1)
            assert _bits(an.m_minus, an.m_plus, an.est_error) == _bits(old.m_minus, old.m_plus, old.est_error)

    def test_over_budget_pair_raises_on_both(self):
        # sigma 0.1 at v0 = +-1000 reaches omega = 0 with 8.3M kernel entries
        p0, p1 = Profile(1.0, 0.1, 1000.0), Profile(1.0, 0.1, -1000.0)
        for route in (correlations._adjacent_lattice, _per_lattice_reference):
            with pytest.raises(DomainError):
                route(p0, p1)


def complex_route_moments(spec0, spec1):
    """(m_minus, m_plus) of adjacent_moments_analytic at the same step and on
    the same nodes, with log e and Gamma(iz) from the complex Lanczos
    log_gamma and one evaluation per kernel entry: the lattices in W where
    both ranges stay above omega = 0, else the lattices in sqrt(W)."""
    def log_e(W):
        return 1j * W * math.log(2.0) - log_gamma(1.0 - 1j * W)

    def gamma_i(z):
        return np.exp(log_gamma(1.0 + 1j * z) - np.log(1j * z))

    def lattice_nodes(p, h, offset):
        lo = math.sqrt(max(p.omega0 - _SPAN * p.sigma, 0.0))
        hi = math.sqrt(p.omega0 + _SPAN * p.sigma)
        k = np.arange(math.ceil(lo / h - offset), math.floor(hi / h - offset) + 1)
        u = (k + offset) * h
        return u, np.where(u == 0.0, 0.5 * h, h)

    p0, p1 = Profile(*spec0), Profile(*spec1)
    V = abs(p0.v0) + abs(p1.v0)
    if min(p.omega0 - _SPAN * p.sigma for p in (p0, p1)) > 0.0:
        # both moments on W = (j + 1/2) d and W' = k d
        d = min(3.0 * p.sigma / (8.0 * (1.0 + V * p.sigma / (2.0 * math.pi))) for p in (p0, p1))
        W, Wp = ((np.arange(math.ceil((p.omega0 - _SPAN * p.sigma) / d - off),
                            math.floor((p.omega0 + _SPAN * p.sigma) / d - off) + 1) + off) * d
                 for p, off in ((p0, 0.5), (p1, 0.0)))
        A, Ap = np.sqrt(W) * np.exp(log_e(W)), np.sqrt(Wp) * np.exp(log_e(Wp))
        x = d * np.conj(p0.amplitude(W)) * A / (2.0 * np.sinh(math.pi * W))
        y = d * np.conj(p1.amplitude(Wp)) / Ap
        F = gamma_i(Wp[None, :] - W[:, None]) @ y / (2.0 * math.pi)
        mm = x @ (F + np.conj(p1.amplitude(W)) / (2.0 * A))
        mp = -np.conj(x) @ gamma_i(W[:, None] + Wp[None, :]) @ y / (2.0 * math.pi)
        return complex(mm), complex(mp)
    h = min(p.sigma / (4.0 * math.sqrt(p.omega0 + _SPAN * p.sigma) * (1.0 + V * p.sigma / (2.0 * math.pi)))
            for p in (p0, p1))
    # both moments on the half-step-offset lattices in u = sqrt(W)
    u, wu = lattice_nodes(p0, h, 0.5)
    up, wp = lattice_nodes(p1, h, 0.0)
    W, Wp = u * u, up * up
    le = log_e(W)
    x = wu * np.conj(p0.amplitude(W)) * np.exp(le) * W / np.sinh(math.pi * W)
    y = wp * 2.0 * np.conj(p1.amplitude(Wp)) / np.exp(log_e(Wp))
    F = gamma_i(Wp[None, :] - W[:, None]) @ y / (2.0 * math.pi)
    mm = x @ (F + np.conj(p1.amplitude(W)) / (2.0 * u * np.exp(le)))
    mp = -np.conj(x) @ gamma_i(W[:, None] + Wp[None, :]) @ y / (2.0 * math.pi)
    return complex(mm), complex(mp)


def mp_w_lattice_reference(spec0, spec1):
    """(m_minus, m_plus) of packets whose ranges stay above omega = 0, to about
    30 digits: the sums on the lattices W = (j + 1/2) s, W' = k s at a quarter
    of the code's step d, all in mpmath at 30 digits, with e(W) = 2^{iW} /
    Gamma(1 - iW) and Gamma(iz) from mpmath.gamma.  Only the kernel values
    are shared between equal k - j (or j + k)."""
    p0, p1 = Profile(*spec0), Profile(*spec1)
    V = abs(p0.v0) + abs(p1.v0)
    s = min(3.0 * p.sigma / (8.0 * (1.0 + V * p.sigma / (2.0 * math.pi))) for p in (p0, p1)) / 4.0
    with mpmath.workdps(30):
        def nodes(p, offset):
            k = range(math.ceil((p.omega0 - _SPAN * p.sigma) / s - offset),
                      math.floor((p.omega0 + _SPAN * p.sigma) / s - offset) + 1)
            return [(i + mpmath.mpf(offset)) * s for i in k], k

        def G(p, w):
            sig = mpmath.mpf(p.sigma)
            return ((2 * mpmath.pi * sig**2) ** mpmath.mpf(-0.25)
                    * mpmath.exp(-(w - p.omega0) ** 2 / (4 * sig**2)) * mpmath.expj(-w * p.v0))

        def A(w):  # sqrt(W) e(W)
            return mpmath.sqrt(w) * mpmath.power(2, 1j * w) / mpmath.gamma(1 - 1j * w)

        (W, j), (Wp, k) = nodes(p0, 0.5), nodes(p1, 0.0)
        x = [s * mpmath.conj(G(p0, w)) * A(w) / (2 * mpmath.sinh(mpmath.pi * w)) for w in W]
        y = [s * mpmath.conj(G(p1, w)) / A(w) for w in Wp]
        res = [mpmath.conj(G(p1, w)) / (2 * A(w)) for w in W]
        T = {m: mpmath.gamma(1j * (m - mpmath.mpf(0.5)) * s) for m in range(k[0] - j[-1], k[-1] - j[0] + 1)}
        H = {m: mpmath.gamma(1j * (m + mpmath.mpf(0.5)) * s) for m in range(j[0] + k[0], j[-1] + k[-1] + 1)}
        two_pi = 2 * mpmath.pi
        mm = mpmath.fsum(xa * (mpmath.fdot([T[kb - ja] for kb in k], y) / two_pi + r)
                         for xa, ja, r in zip(x, j, res))
        mp = -mpmath.fsum(mpmath.conj(xa) * mpmath.fdot([H[kb + ja] for kb in k], y)
                          for xa, ja in zip(x, j)) / two_pi
        return complex(mm), complex(mp)


NARROW = [((1.0, 0.02), (0.93, 0.02)), ((1.0, 0.02), (1.0, 0.02)), ((1.0, 0.02), (1.5, 0.02))]


class TestRealLineKernel:
    @pytest.mark.parametrize("s0,s1", NARROW + [
        ((1.0, 0.05, 0.3), (1.0, 0.05, -0.2)),
        ((1.0, 0.05), (1.0, 0.05, 100.0)),
        ((3.0, 0.25), (3.0, 0.25)),
        ((1.2, 0.1), (1.2, 0.1)),
        ((1.0, 0.2), (1.0, 0.2)),
        ((10.0, 0.5), (12.0, 0.5)),
        ((0.5, 0.1), (1.0, 0.1)),
    ])
    def test_est_error_bounds_gap_to_complex_route(self, s0, s1):
        an = adjacent_moments_analytic(s0, s1)
        mm, mp = complex_route_moments(s0, s1)
        assert abs(an.m_minus - mm) <= an.est_error
        assert abs(an.m_plus - mp) <= an.est_error

    @pytest.mark.parametrize("s0,s1", NARROW)
    def test_narrow_packets_agree_to_rounding(self, s0, s1):
        an = adjacent_moments_analytic(s0, s1)
        mm, mp = complex_route_moments(s0, s1)
        assert abs(an.m_minus - mm) <= 1e-13 * abs(mm)
        assert abs(an.m_plus - mp) <= 1e-13 * abs(mp)

    @pytest.mark.parametrize("s0,s1", [
        *(((1.0, 0.02), (w, 0.02)) for w in (0.5, 0.93, 1.0, 1.5)),
        ((0.5, 0.02), (1.05, 0.02)),
        ((0.55, 0.02), (0.9, 0.02)),
        ((0.3, 0.02), (0.5, 0.02)),
        ((1.0, 0.08), (1.0, 0.08)),
        ((0.2405, 0.02), (0.2405, 0.02)),  # its range ends 5e-4 above omega = 0
        ((1.0, 0.05, 0.3), (1.0, 0.05, -0.2)),
    ])
    def test_est_error_bounds_gap_to_30_digit_lattice(self, s0, s1):
        # gaps up to 5.6e-17 against est_error 2.3e-17 to 9.2e-15; the Gauss-
        # Legendre m_plus that the W lattice replaced was up to 8.5e-11 off
        an = adjacent_moments_analytic(s0, s1)
        mm, mp = mp_w_lattice_reference(s0, s1)
        assert abs(an.m_minus - mm) <= an.est_error
        assert abs(an.m_plus - mp) <= an.est_error

    def test_kernels_take_few_gamma_arguments(self, monkeypatch):
        # on the W lattices each kernel takes N0 + N1 - 1 arguments per step
        # (380 here), where full matrices took 6,177
        sizes = []

        def recording(z):
            sizes.append(np.size(z))
            return specfun.log_gamma_1pix(z)

        monkeypatch.setattr(correlations, "log_gamma_1pix", recording)
        adjacent_moments_analytic((1.0, 0.02), (1.2, 0.02))
        assert max(sizes) <= 600

    def test_one_kernel_evaluation_per_call(self, monkeypatch):
        # the four sums share one call for log e and Gamma(iz) at both steps
        calls = {"log_gamma_1pix": 0, "log_gamma": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(correlations, "log_gamma_1pix",
                            counting("log_gamma_1pix", correlations.log_gamma_1pix))
        monkeypatch.setattr(specfun, "log_gamma", counting("log_gamma", specfun.log_gamma))
        adjacent_moments_analytic((1.0, 0.05, 0.3), (1.2, 0.05))
        assert calls["log_gamma_1pix"] == 1
        assert calls["log_gamma"] == 0
        assert not hasattr(correlations, "log_gamma")

    @pytest.mark.parametrize("s0,s1", [((1.0, 0.05, 0.3), (1.2, 0.05)), ((0.3, 0.02), (0.5, 0.02))])
    def test_one_amplitude_call_per_packet(self, monkeypatch, s0, s1):
        # one profile evaluation per packet on the nodes of both steps (p = 1,
        # then p = 2), and the two omega = 0 values of the infrared term
        # through Profile.amplitude
        calls = []
        at = Profile._at

        def counting(self, d, om):
            calls.append(om)
            return at(self, d, om)

        monkeypatch.setattr(Profile, "_at", counting)
        adjacent_moments_analytic(s0, s1)
        assert len(calls) <= 4


class TestAsymptotics:
    def test_smeared_ratio_near_one(self):
        cm = cross_moments((1.0, 0.05), (1.0, 0.05), 20)
        mm, mp = smeared_asymptotic_moment((1.0, 0.05), (1.0, 0.05), 20)
        assert 0.9 <= cm.m_minus.real / mm <= 1.1

    @pytest.mark.parametrize("spec0, spec1", [
        ((1.0, 0.02), (1.0, 0.02)), ((1.0, 0.05), (1.0, 0.05)),
        ((1.0, 0.02), (1.3, 0.02)), ((2.0, 0.1), (0.6, 0.05)),
    ])
    def test_smeared_is_asymptotic_times_profile_integrals(self, spec0, spec1):
        # for omega0 >= 12 sigma, Int dw G = (2 pi sigma^2)^{-1/4} 2 sigma sqrt(pi)
        norm = math.prod((2.0 * math.pi * s * s) ** -0.25 * 2.0 * s * math.sqrt(math.pi)
                         for _, s in (spec0, spec1))
        got = smeared_asymptotic_moment(spec0, spec1, 20)
        ref = asymptotic_moment(20, spec0[0], spec1[0])
        for x, r in zip(got, ref):
            assert abs(x - r * norm) <= 1e-13 * abs(r * norm)

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

    @pytest.mark.parametrize("sigma", [1e-13, 1e-15, 1e-17])
    @pytest.mark.parametrize("call", ["adjacent_moments_analytic(p, p)", "cross_moments(p, p, 2)"])
    def test_narrow_packets_fail_fast(self, sigma, call, bounded):
        # omega0/sigma is bounded by modes._NARROW = 1e8.  Without it the
        # n = 1 m_minus read 0.1004 for 0.0216 at sigma = 1e-17, with est_error
        # 5.2e-3 (0.2073 when each node offset carried its own rounding)
        name, seconds, err = bounded("from diamondfield.correlations import adjacent_moments_analytic, "
                                     f"cross_moments\np = (1.0, {sigma!r})", call)
        assert name == "DomainError" and seconds < 1.0
        assert "Warning" not in err

    @pytest.mark.parametrize("w0,w1", [(1.0, 1.0), (1.0, 1.3), (0.5, 0.5)])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20])
    def test_narrow_band_limits(self, n, w0, w1):
        # as sigma -> 0 at v0 = 0, m_minus/sigma -> k conj(alpha_n) and
        # m_plus/sigma -> k conj(beta_n), k = sqrt(2 pi) / sinh(pi w0), from the
        # sharp routes, which share only _kernel with the smeared ones; at
        # n = 1 and w1 = w0 alpha's pole leaves m_minus -> 1/(4 sinh pi w0)
        # itself.  The gap at 1e-7 may take both est_errors and the sigma
        # term, bounded by 2x the gap at 1e-6 over 10^p: m/sigma moves as
        # sigma^2 (p = 2) and that m_minus as sigma (p = 1).  The gaps fell
        # 92-100x from 1e-6 to 1e-7, and 10x for that m_minus
        k = math.sqrt(2.0 * math.pi) / math.sinh(math.pi * w0)
        if n >= 2:
            al, be, sharp_err = alpha_beta_numeric(w0, w1, n)
        elif w1 != w0:
            al, be = alpha_beta_adjacent(w0, w1)
            # the closed form's Gamma floor, as adjacent_moments_analytic takes it
            sharp_err = 3.0 * correlations._lg_rel(w0 + w1) * max(abs(al), abs(be))
        else:
            al, be, sharp_err = None, beta_adjacent_diagonal(w0), 0.0

        def gaps(sigma):  # (m_minus gap, m_plus/sigma gap, est_error)
            s0, s1 = (w0, sigma), (w1, sigma)
            cm = adjacent_moments_analytic(s0, s1) if n == 1 else cross_moments(s0, s1, n)
            if al is None:
                gm = abs(cm.m_minus - 0.25 / math.sinh(math.pi * w0))
            else:
                gm = abs(cm.m_minus / sigma - k * np.conj(al))
            return gm, abs(cm.m_plus / sigma - k * np.conj(be)), cm.est_error

        (gm6, gp6, _), (gm, gp, err) = gaps(1e-6), gaps(1e-7)
        scaled_err = err / 1e-7 + k * sharp_err
        assert gp <= scaled_err + 2.0 * gp6 * 1e-2
        assert gm <= (err + 2.0 * gm6 * 1e-1 if al is None else scaled_err + 2.0 * gm6 * 1e-2)

    def test_wide_exterior_over_narrow_diamond_is_fast(self, bounded):
        # an m_x rule wanted 7,066 exterior nodes here and raised; cut at the
        # exterior edge, both packets stay on 96 nodes
        s0, s1 = (12.0, 1.0), (1.0, 0.01)
        name, seconds, _ = bounded("from diamondfield.correlations import cross_moments",
                                   f"cross_moments({s0}, {s1}, 1)")
        assert name.startswith("CrossMoments(") and seconds < 1.0
        kg, an = cross_moments(s0, s1, 1), adjacent_moments_analytic(s0, s1)
        assert abs(kg.m_minus - an.m_minus) <= kg.est_error + an.est_error
        assert abs(kg.m_plus - an.m_plus) <= kg.est_error + an.est_error

    @pytest.mark.parametrize("f,args", [
        (asymptotic_moment, (10, 0.0, 1.0)),
        (asymptotic_moment, (10, -1.0, 1.0)),
        (asymptotic_moment, (10, math.nan, 1.0)),
        (asymptotic_moment, (10, 1.0, math.inf)),
        (asymptotic_moment, (10.5, 1.0, 1.0)),
        (smeared_asymptotic_moment, ((1.0, 0.05), (1.0, 0.05), 10.5)),
        (cross_moments, ((1.0, 0.05), (1.0, 0.05), 1.5)),
        (cross_moments, ((1.0, 0.05), (1.0, 0.05), math.nan)),
        (alpha_beta_numeric, (1.0, 1.3, 1.5)),
        (alpha_beta_numeric, (math.inf, 1.0)),
        (alpha_beta_adjacent, (math.inf, 1.0)),
    ], ids=["zero", "negative", "nan", "inf", "fractional-n", "smeared-fractional-n",
            "cross-fractional-n", "cross-nan-n", "numeric-fractional-n", "numeric-inf", "adjacent-inf"])
    def test_out_of_domain_inputs_raise_domain_error(self, f, args):
        # these ended in ZeroDivisionError, ValueError, NaN or a result for a
        # fractional separation
        with pytest.raises(DomainError):
            f(*args)

    def test_high_frequencies_underflow_to_zero(self):
        # sinh(pi Omega) passes the double range at Omega ~ 226: math.sinh
        # raised OverflowError and np.sinh warned (an error in this suite)
        assert asymptotic_moment(10, 300.0, 1.0) == (0.0, -0.0)
        cm = cross_moments((300.0, 0.02), (300.0, 0.02), 20)
        assert cm.m_minus == 0.0 and cm.m_plus == 0.0 and cm.est_error == 0.0
        an = adjacent_moments_analytic((300.0, 0.02), (300.0, 0.02))
        assert an.m_minus == 0.0 and an.m_plus == 0.0

    @pytest.mark.parametrize("s0,s1", [((500.0, 0.02), (500.0, 0.02)), ((1.0, 0.02), (500.0, 0.02)),
                                       ((500.0, 50.0), (500.0, 50.0))])
    def test_adjacent_closed_form_finite_past_the_overflow(self, s0, s1):
        # the weights e^{log A} / sinh(pi W) were inf / inf from W ~ 452 and
        # gave NaN moments with a NaN est_error; the last pair reaches
        # omega = 0 and runs on the sqrt(omega) lattices
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            an = adjacent_moments_analytic(s0, s1)
        assert all(math.isfinite(abs(x)) for x in (an.m_minus, an.m_plus, an.est_error))
        if s0[1] == 0.02:  # both moments are below the double range
            assert an.m_minus == 0.0 and an.m_plus == 0.0

    def test_smeared_asymptotic_rejects_offset_centers(self):
        # the asymptotic form has no e^{-i w v0} phases; the numeric moments do
        for spec0, spec1 in (((1.0, 0.05, 0.3), (1.0, 0.05)), ((1.0, 0.05), (1.0, 0.05, -1.0))):
            with pytest.raises(DomainError):
                smeared_asymptotic_moment(spec0, spec1, 20)
