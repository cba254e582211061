import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from diamondfield import modes
from diamondfield._quad import integrate_adaptive
from diamondfield.bogoliubov import ab_coefficients
from diamondfield.correlations import _kernel
from diamondfield.errors import DomainError
from diamondfield.modes import (
    _TAIL,
    _V_CUT,
    Packet,
    Profile,
    _grid_sum,
    _phase,
    _plane_kernel,
    _taylor_sum,
    kg_product,
)

KINDS = ("plane", "diamond", "exterior")


class TestPacketNorms:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_norm(self, kind):
        p = Packet(0, 1.0, kind=kind)
        res = kg_product(p, p)
        assert abs(res.value - 1.0) < 1e-7

    @pytest.mark.parametrize("kind", KINDS)
    def test_conjugate_negative_norm(self, kind):
        p = Packet(0, 1.0, kind=kind)
        res = kg_product(p.conjugate(), p.conjugate())
        assert abs(res.value + 1.0) < 1e-7

    @pytest.mark.parametrize("kind", KINDS)
    def test_mode_conjugate_orthogonal(self, kind):
        p = Packet(0, 1.0, kind=kind)
        res = kg_product(p, p.conjugate())
        assert abs(res.value) < 1e-7

    @pytest.mark.parametrize("v0", [100.0, 200.0, 300.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_unit_norm_far_from_center(self, kind, v0):
        # the envelope peaks at u = -v0 for diamond and plane packets and at
        # u = +v0 for exterior ones; the product must integrate over it
        p = Packet(0, 1.0, 0.02, v0=v0, kind=kind)
        assert abs(kg_product(p, p).value - 1.0) <= 1e-10

    @pytest.mark.parametrize("v0", [0.0, 100.0, 300.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_est_error_bounds_unit_gap(self, kind, v0):
        # the doubling difference alone reads 0 here; the rounding floor of
        # the phases w u must cover the ~1e-14 gap
        p = Packet(0, 1.0, 0.02, v0=v0, kind=kind)
        res = kg_product(p, p)
        assert abs(res.value - 1.0) <= res.est_error <= 1e-12


def _count_nodes(monkeypatch):
    """Count the u nodes handed to Packet.eval_natural."""
    nodes = [0]
    eval_natural = Packet.eval_natural

    def counting(self, u):
        nodes[0] += np.size(u)
        return eval_natural(self, u)

    monkeypatch.setattr(Packet, "eval_natural", counting)
    return nodes


class TestPacket:
    def test_packets_compare_and_hash(self):
        # the node arrays are not fields, so equal parameters give equal packets
        p, q = Packet(0, 1.0), Packet(0, 1.0)
        assert p == q and hash(p) == hash(q)
        assert p.conjugate() != p and p.conjugate().conjugate() == p
        assert len({p, q, p.conjugate()}) == 2

    def test_nodes_are_the_profile_grid(self):
        # a packet is linear in G, so it takes the rule cut at omega0 +- _SPAN sigma
        p = Packet(0, 1.0, 0.05, v0=3.0, kind="exterior")
        om, wt, G = p.profile.nodes(root=True)
        assert np.array_equal(p.omegas, om) and np.array_equal(p.weights, wt * G)

    @pytest.mark.parametrize("n", [0.5, math.nan, 1.0])
    def test_non_integer_diamond_index_rejected(self, n):
        # Packet(0.5, 1.0) made kg_product with a plane packet return
        # -0.0221 + 0.0481i for a diamond that does not exist
        with pytest.raises(DomainError):
            Packet(n, 1.0)


class TestProductCost:
    @pytest.mark.parametrize("kind", KINDS)
    def test_norm_at_beat_bandwidth(self, kind, monkeypatch):
        # a norm sums the beats e^{-i (w_j - w_k) u} of the packet in closed
        # form: no packet evaluation and no quadrature
        p = Packet(0, 1.0, 0.02, kind=kind)
        nodes = _count_nodes(monkeypatch)
        calls = []
        monkeypatch.setattr(modes, "integrate_adaptive", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(modes, "integrate_trapezoid", lambda *a, **k: calls.append(a))
        for m1, m2 in ((p, p), (p, p.conjugate()), (p.conjugate(), p.conjugate())):
            kg_product(m1, m2)
        assert nodes[0] == 0 and calls == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_shared_evaluation_is_bit_identical(self, kind):
        p = Packet(0, 1.0, 0.02, v0=3.0, kind=kind)
        q = dataclasses.replace(p)  # equal parameters, its own node arrays
        assert kg_product(p, p) == kg_product(p, q)
        assert kg_product(p, p.conjugate()) == kg_product(p, q.conjugate())
        assert kg_product(p.conjugate(), p.conjugate()) == kg_product(p.conjugate(), q.conjugate())


def _quadrature_reference(p1, p2):
    """<p1, p2> of one family by adaptive panel quadrature of the integrand
    -i s (f du(g*) - g* du(f)) in their rapidity u over p1's envelope, s the
    sign of dV/du.  The first panels span one period of the integrand's
    fastest beat (|w_j - w'_k|, or w_j + w'_k for p with q*), which 16-node
    panels already resolve to rounding."""
    lo, hi = p1.envelope_interval()
    s = -1.0 if p1.kind == "exterior" else 1.0

    def integrand(u, *grid):
        f, df = p1.eval_natural(u)
        g, dg = p2.eval_natural(u)
        return -1j * s * (f * np.conj(dg) - np.conj(g) * df), 0.0

    if p1.conj == p2.conj:
        beat = max(np.max(p1.omegas) - np.min(p2.omegas), np.max(p2.omegas) - np.min(p1.omegas))
    else:
        beat = np.max(p1.omegas) + np.max(p2.omegas)
    return integrate_adaptive(integrand, lo, hi, tol=1e-12, est_freq=beat / 3.0)[0]


class TestSameFamilySum:
    @pytest.mark.parametrize("sigma", [0.02, 0.05, 0.3])
    @pytest.mark.parametrize("v0", [0.0, 3.0, 100.0, 300.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_est_error_bounds_gap_to_quadrature(self, kind, v0, sigma):
        # the closed-form double sum against the quadrature it replaced, for
        # a packet p, its conjugate and a packet q at omega0 = 1.08, v0 / 2
        p = Packet(0, 1.0, sigma, v0=v0, kind=kind)
        q = Packet(0, 1.08, sigma, v0=v0 / 2.0, kind=kind)
        pairs = ((p, p), (p, p.conjugate()), (p.conjugate(), p.conjugate()),
                 (p, q), (q.conjugate(), p))
        for m1, m2 in pairs:
            res = kg_product(m1, m2)
            assert abs(res.value - _quadrature_reference(m1, m2)) <= res.est_error


    def test_phases_are_a_row_and_a_column(self, monkeypatch):
        # e^{-i (s_j - t_k) c} = e^{-i s_j c} e^{+i t_k c}: at sigma 0.3 and
        # v0 300 no phase is formed over the 1,248 x 1,248 beats
        p = Packet(0, 1.0, 0.3, v0=300.0)
        sizes, phase = [], modes._phase
        monkeypatch.setattr(modes, "_phase", lambda x: sizes.append(np.size(x)) or phase(x))
        kg_product(p, p.conjugate())
        assert p.omegas.size == 1248 and sizes == [1248, 1248]


class TestOverlaps:
    def test_same_family_frequency_space_oracle(self):
        # overlap of two packets in one diamond is the profile overlap
        p1 = Packet(0, 1.0, 0.05)
        p2 = Packet(0, 1.08, 0.05)
        val = kg_product(p1, p2).value
        s = 0.05
        ref = math.exp(-((1.08 - 1.0) ** 2) / (8.0 * s * s))
        # both packets truncate their frequency support at +-8 sigma
        assert abs(val - ref) < 1e-6

    def test_displaced_packet_phase(self):
        p1 = Packet(0, 1.0, 0.02, kind="plane")
        p2 = Packet(0, 1.0, 0.02, v0=0.3, kind="plane")
        val = kg_product(p1, p2).value
        # <p1, p2> = Int |G|^2 e^{i w v0} dw, Gaussian closed form
        ref = np.exp(1j * 0.3 - 0.02**2 * 0.3**2 / 2.0)
        assert abs(val - ref) < 1e-6

    def test_unknown_kind_rejected(self):
        # unchecked, a misspelt diamond meets diamond 2 with a nonzero product
        # and an unknown kind goes through the diamond kernel against a plane
        with pytest.raises(DomainError):
            kg_product(Packet(0, 1.0, kind="Diamond"), Packet(2, 1.0))
        with pytest.raises(DomainError):
            kg_product(Packet(0, 1.0, kind="rindler"), Packet(0, 1.0, kind="plane"))

    def test_disjoint_diamonds_exact_zero(self):
        p1 = Packet(0, 1.0)
        p2 = Packet(2, 1.0)
        res = kg_product(p1, p2)
        assert res.value == 0.0
        assert res.est_error == 0.0

    @pytest.mark.parametrize("n1, n2", [(0, 1), (1, 0), (1, 2)])
    def test_touching_diamonds_exact_zero(self, n1, n2):
        p1 = Packet(n1, 1.0)
        res = kg_product(p1, Packet(n2, 1.0))
        assert res.value == 0.0
        assert res.est_error == 0.0

    @pytest.mark.parametrize("omega, k, n", [(1.0, 1.5, 0), (2.0, 0.7, 1)])
    def test_plane_diamond_matches_closed_form_node_sum(self, omega, k, n):
        # <P, Q> = sum_jk a_j conj(b_k) A(omega_j, k_k) for P = sum a_j g_{n, omega_j}
        # and Q = sum b_k u_{k_k}, with A = <g, u_k> in closed form
        d = Packet(n, omega, 0.05)
        p = Packet(0, k, 0.05, kind="plane")
        ref = sum(a * np.sum(np.conj(p.weights) * ab_coefficients(w, p.omegas, n=n)[0])
                  for w, a in zip(d.omegas, d.weights))
        assert abs(kg_product(d, p).value - ref) <= 1e-9
        assert abs(kg_product(p, d).value - np.conj(ref)) <= 1e-9

    def test_diamond_exterior_orthogonal_supports(self):
        p1 = Packet(0, 1.0)
        p2 = Packet(0, 1.0, kind="exterior")
        assert kg_product(p1, p2).value == 0.0

    def test_conjugation_antisymmetry(self):
        p1 = Packet(0, 1.0, 0.05)
        p2 = Packet(0, 1.2, 0.05)
        lhs = kg_product(p1.conjugate(), p2.conjugate()).value
        rhs = -np.conj(kg_product(p1, p2).value)
        assert abs(lhs - rhs) < 1e-7

    def test_only_packets(self):
        with pytest.raises(TypeError):
            kg_product(Packet(0, 1.0), (1.0, 0.02))

    def test_plane_exterior_fails_fast(self):
        # the exterior-chart quadrature of this pair grows without bound
        plane, ext = Packet(0, 1.0, kind="plane"), Packet(0, 1.0, kind="exterior")
        for m1, m2 in [(plane, ext), (ext.conjugate(), plane)]:
            t0 = time.perf_counter()
            with pytest.raises(DomainError):
                kg_product(m1, m2)
            assert time.perf_counter() - t0 < 1.0

    def test_unresolvable_offset_fails_fast(self, bounded):
        # v0 = 1e5 asks for 25,696 nodes per packet, a 5.3 GB Gauss-Legendre solve
        name, seconds, _ = bounded("from diamondfield.modes import Packet, kg_product\n"
                                   "p = Packet(0, 1.0, v0=1e5)", "kg_product(p, p)")
        assert name == "DomainError" and seconds < 1.0

    def test_diamond_exterior_fails_fast(self):
        # the diamond-exterior overlap lives in correlations, not in the KG engine
        diamond = Packet(1, 1.0)
        ext = Packet(0, 1.0, kind="exterior")
        for d in (diamond, diamond.conjugate()):
            for x in (ext, ext.conjugate()):
                for m1, m2 in ((d, x), (x, d)):
                    t0 = time.perf_counter()
                    with pytest.raises(DomainError):
                        kg_product(m1, m2)
                    assert time.perf_counter() - t0 < 1.0


# (omega, k, n, sigma) of a diamond and a plane packet
PLANE_DIAMOND = [
    (1.0, 1.0, 0, 0.05), (1.0, 1.5, 0, 0.05), (2.0, 0.7, 1, 0.05), (2.0, 1.0, 1, 0.05),
    (1.0, 1.0, 0, 0.02), (1.0, 1.5, 0, 0.02), (3.0, 3.0, 0, 0.3),
]


def _plane_diamond_pair(omega, k, n, sigma):
    return Packet(n, omega, sigma), Packet(0, k, sigma, kind="plane")


@functools.lru_cache(maxsize=None)
def _node_sums(omega, k, n, sigma):
    """<D, Q> and <D, Q*> of the packets of _plane_diamond_pair as closed-form
    node sums sum_jk a_j conj(b_k) A and -sum_jk a_j b_k B, with A = <g, u_k>
    and B = -<g, u_k*>; cached, since the Kummer band lanes run in mpmath."""
    d, p = _plane_diamond_pair(omega, k, n, sigma)
    A, B = (np.array(x) for x in zip(*(ab_coefficients(w, p.omegas, n=n) for w in d.omegas)))
    return d.weights @ A @ np.conj(p.weights), -(d.weights @ B @ p.weights)


class TestPlaneDiamond:
    @pytest.mark.parametrize("omega, k, n, sigma", PLANE_DIAMOND)
    def test_est_error_bounds_gap_to_node_sum(self, omega, k, n, sigma):
        # the rapidity integral has no envelope cut; the chart quadrature it
        # replaced was 2e-11 to 5e-10 off with est_error 2e-14 to 7e-14
        d, p = _plane_diamond_pair(omega, k, n, sigma)
        ref, _ = _node_sums(omega, k, n, sigma)
        res = kg_product(d, p)
        assert abs(res.value - ref) <= res.est_error <= 1e-12

    @pytest.mark.parametrize("omega, k, n, sigma", PLANE_DIAMOND)
    def test_conjugate_pairs_match_node_sums(self, omega, k, n, sigma):
        d, p = _plane_diamond_pair(omega, k, n, sigma)
        ref_a, ref_b = _node_sums(omega, k, n, sigma)
        for m1, m2, ref in ((p, d, np.conj(ref_a)), (d, p.conjugate(), ref_b),
                            (d.conjugate(), p, -np.conj(ref_b))):
            res = kg_product(m1, m2)
            assert abs(res.value - ref) <= res.est_error <= 1e-12

    @pytest.mark.parametrize("dspec, qspec", [((1.0, 0.02), (1.0, 0.02)), ((1.0, 0.1), (1.2, 0.1))])
    def test_est_error_bounds_gap_to_16_sigma_reference(self, dspec, qspec, monkeypatch):
        # the same rapidity integral with both profiles on 256 nodes in
        # sqrt(omega) over omega0 +- 16 sigma: packets on the +-8 sigma rule
        # for integrands quadratic in G were 1.6e-9 and 7.2e-9 off it, with
        # est_error 1.4e-15 and 1.2e-14
        d, q = Packet(0, *dspec), Packet(0, *qspec, kind="plane")
        monkeypatch.setattr(modes, "_SPAN", 16.0)
        (om_d, wt_d, G_d), (om_q, wt_q, G_q) = (Profile(*s).nodes(256, root=True) for s in (dspec, qspec))
        monkeypatch.undo()
        I, _, err = modes._rapidity_integral(lambda v: _plane_kernel(0, v), om_d, wt_d * G_d / np.sqrt(om_d),
                                             om_q, np.conj(wt_q * G_q) * np.sqrt(om_q), -_V_CUT, _V_CUT, 1.0)
        res = kg_product(d, q)
        assert abs(res.value - I / (2.0 * math.pi)) <= res.est_error + err / (2.0 * math.pi)

    def test_no_chart_evaluation(self, monkeypatch):
        # both packets are summed inside the rapidity integrand
        d = Packet(0, 1.0, 0.05)
        p = Packet(0, 1.5, 0.05, kind="plane")
        nodes = _count_nodes(monkeypatch)
        for m1, m2 in ((d, p), (p.conjugate(), d), (d.conjugate(), p)):
            kg_product(m1, m2)
        assert nodes[0] == 0


def _exterior_side(n):
    """(kernel, om, c, lo, hi, est_freq) of the exterior side of
    cross_moments((1.0, 0.02), (1.0, 0.02), n)."""
    om, wt, G = Profile(1.0, 0.02).nodes(96, root=True)
    c = wt * G / (2.0 * np.sinh(math.pi * om)) * np.sqrt(om)
    lo = -_TAIL / 0.02 if n == 1 else -_V_CUT
    rate = 1.0 if n == 1 else 0.25 / (n * (n - 1))  # correlations._overlap's bound on |dL/dv|
    return lambda v: _kernel(n, v), om, c, lo, _V_CUT, (1.0 + rate) * np.max(om)


def _plane_side(omega, k, sigma):
    """The same for the plane side of kg_product(diamond (omega, sigma), plane
    (k, sigma)), or for one plane wave k without sigma."""
    if sigma is None:
        om, c, top = np.array([k]), np.ones(1), omega
    else:
        d, q = _plane_diamond_pair(omega, k, 0, sigma)
        om, c, top = q.omegas, np.conj(q.weights) * np.sqrt(q.omegas), np.max(d.omegas)
    return lambda v: _plane_kernel(0, v), om, c, -_V_CUT, _V_CUT, top + np.max(om)


def _first_grid(lo, hi, est_freq):
    """(v, start, step) of the first trapezoid call _rapidity_integral makes
    for a phase turning at est_freq: the 2n + 1 nodes of the first two
    levels, n intervals of the first step and their midpoints."""
    n = math.ceil((hi - lo) / min(0.5, math.pi / (4.0 * est_freq)))
    h = 0.5 * (hi - lo) / n
    return lo + h * np.arange(2 * n + 1), lo, h


class TestPhaseSums:
    def test_phase_kernel_is_complex_exp_bit_for_bit(self):
        x = np.random.default_rng(7).uniform(-1e4, 1e4, 20000)
        x = np.concatenate([x, np.linspace(-3.0, 3.0, 1001), [0.0, -0.0, 1e4, -1e4]])
        for arg in (x, x.reshape(-1, 5)):
            got, want = _phase(arg), np.exp(-1j * arg)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("sigma", [0.02, 0.1])
    @pytest.mark.parametrize("v0", [0.0, 100.0])
    @pytest.mark.parametrize("adjacent", [False, True], ids=["cut", "n=1"])
    def test_factored_sum_matches_direct_sum(self, sigma, v0, adjacent):
        # cross_moments' diamond side on the grid of its first trapezoid call,
        # the first two levels at once; the gap stays within the rounding
        # floor est_error already adds for the phases w v
        m = 96 + math.ceil(12.8 * sigma * v0)
        om, wt, G = Profile(1.0, sigma, v0).nodes(m, root=True)
        c = wt * G / np.sqrt(om)
        lo, hi = (-v0 - _TAIL / sigma if adjacent else -_V_CUT), _V_CUT
        v, start, step = _first_grid(lo, hi, 2.0 * np.max(om))
        direct = np.exp(-1j * np.multiply.outer(v, om)) @ c
        floor = np.finfo(float).eps * np.sum(np.abs(c)) * (1.0 + np.max(om) * np.max(np.abs(v)))
        assert np.max(np.abs(_grid_sum(om, c, start, step, v.size) - direct)) <= floor

    @pytest.mark.parametrize("side", [
        *(pytest.param(_exterior_side(n), id=f"exterior-{n}") for n in (1, 2, 20)),
        pytest.param(_plane_side(3.0, 3.0, 0.3), id="plane-packet"),
        pytest.param(_plane_side(1.0, 20.0, None), id="plane-node"),
    ])
    @pytest.mark.parametrize("tol", [modes._TAYLOR_TOL, 1e-6], ids=["eps", "1e-6"])
    def test_taylor_sum_matches_direct_sum(self, side, tol, monkeypatch):
        # the exterior side of cross_moments (at n = 1, L reaches ~275 toward
        # the shared tip), the plane side of kg_product and one plane wave,
        # on the grid of the first trapezoid call, the first two levels at
        # once.  Beyond the stated remainder the gap may hold the rounding
        # of the phases w L and of the m-term sums on both sides: the direct
        # sum alone is 1.9 eps sum|c| off a long-double sum at n = 2.  At an
        # order cut at 1e-6 the remainder is the gap (0.997 of it at one node)
        monkeypatch.setattr(modes, "_TAYLOR_TOL", tol)
        kernel, om, c, lo, hi, est_freq = side
        _, L = kernel(_first_grid(lo, hi, est_freq)[0])
        X, bound = _taylor_sum(om, c, L)
        direct = np.exp(-1j * np.multiply.outer(L, om)) @ c
        floor = np.finfo(float).eps * np.sum(np.abs(c)) * (
            1.0 + np.max(om) * np.max(np.abs(L)) + math.log2(om.size))
        assert np.max(np.abs(X - direct)) <= bound + floor


class TestProfile:
    def test_unit_norm_on_nodes(self):
        _, wt, G = Profile(2.0, 0.1, 0.5).nodes(96)
        assert abs(np.sum(wt * np.abs(G) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("omega0", [2.0, 0.5, 0.2])
    def test_root_nodes_integrate_to_omega_zero(self, omega0):
        # nodes in sqrt(omega) over max(omega0 - 8 sigma, 0)..omega0 + 8 sigma:
        # the norm misses the Gaussian mass below omega = 0 and beyond 8 sigma
        p = Profile(omega0, 0.1)
        _, wt, G = p.nodes(64, root=True)
        r = min(omega0 / 0.1, 8.0)
        mass = 0.5 * math.erfc(-8.0 / math.sqrt(2.0)) - 0.5 * math.erfc(r / math.sqrt(2.0))
        assert abs(np.sum(wt * np.abs(G) ** 2) - mass) <= 1e-12

    def test_bad_profile_rejected(self):
        with pytest.raises(DomainError):
            Profile(1.0, 0.0).nodes(16)

    @pytest.mark.parametrize("args", [
        (math.nan, 0.02), (math.inf, 0.02), (1.0, math.nan), (1.0, math.inf),
        (1.0, 0.02, math.nan), (1.0, 0.02, -math.inf),
    ])
    def test_non_finite_profile_rejected(self, args):
        with pytest.raises(DomainError):
            Profile(*args).nodes()

    @pytest.mark.parametrize("args", [
        (1e300, 0.02), (1.0, 1e300), (1.0, 1e-300), (1.0, 0.02, 1e300), (1e100, 1e-100),
    ])
    @pytest.mark.parametrize("root", [False, True])
    def test_profile_outside_its_domain_rejected(self, args, root):
        # sigma**2 raised OverflowError at sigma = 1e300; (w - omega0)^2 / 4 sigma^2
        # overflowed with a warning at (1e100, 1e-100) on the root nodes
        with pytest.raises(DomainError, match="omega0/sigma"):
            Profile(*args).nodes(16, root=root)

    @pytest.mark.parametrize("args", [
        (modes._SCALE, modes._SCALE), (modes._SCALE, modes._SCALE / modes._NARROW), (1.0, 1.0 / modes._NARROW),
        (1e-300, 1.0 / modes._SCALE, -modes._SCALE),
    ])
    @pytest.mark.parametrize("root", [False, True])
    def test_profile_domain_edges_stay_finite(self, args, root):
        om, wt, G = Profile(*args).nodes(16, root=root)
        assert np.all(np.isfinite(om)) and np.all(np.isfinite(G))
