import math

import pytest
from hypothesis import given, settings, strategies as st

from diamondfield.errors import ConvergenceError, OutsideDiamondError
from diamondfield.geometry import (
    DiamondEvent,
    MinkowskiEvent,
    line_element,
    to_diamond,
    to_minkowski,
    worldline_clock,
)


def interior_events():
    # events safely inside |t| + r < 2
    frac = st.floats(-0.9, 0.9)
    return st.tuples(frac, frac, frac, frac).filter(
        lambda u: abs(u[0]) + math.sqrt(u[1] ** 2 + u[2] ** 2 + u[3] ** 2) < 1.8
    )


class TestCoordinateMap:
    @given(interior_events())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, u):
        ev = MinkowskiEvent(*u)
        back = to_minkowski(to_diamond(ev))
        assert abs(back.t - ev.t) < 1e-9
        assert abs(back.x - ev.x) < 1e-9
        assert abs(back.y - ev.y) < 1e-9
        assert abs(back.z - ev.z) < 1e-9

    @pytest.mark.parametrize("d", [(30.0, 30.0, 0.0, 0.0), (800.0, 0.0, 0.0, 0.0),
                                   (400.0, 400.0, 0.0, 0.0), (0.0, 0.0, 1e200, 1e200)])
    def test_inverse_rejects_images_on_the_boundary(self, d):
        # these images round onto the null boundary (or overflow) in doubles
        with pytest.raises(ConvergenceError):
            to_minkowski(DiamondEvent(*d))

    def test_origin_fixed_point(self):
        d = to_diamond(MinkowskiEvent(0.0, 0.0, 0.0, 0.0))
        assert (d.eta, d.xi, d.zeta, d.rho) == (0.0, 0.0, 0.0, 0.0)

    def test_outside_raises(self):
        with pytest.raises(OutsideDiamondError):
            to_diamond(MinkowskiEvent(1.5, 0.6, 0.0, 0.0))

    def test_boundary_raises(self):
        with pytest.raises(OutsideDiamondError):
            to_diamond(MinkowskiEvent(2.0, 0.0, 0.0, 0.0))


class TestLineElement:
    @given(interior_events())
    @settings(max_examples=30, deadline=None)
    def test_pullback_matches_minkowski_interval(self, u):
        ev = MinkowskiEvent(*u)
        d = to_diamond(ev)
        h = 1e-6
        for dd in (
            DiamondEvent(h, 0.0, 0.0, 0.0),
            DiamondEvent(0.0, h, 0.0, 0.0),
            DiamondEvent(h, 0.0, 2 * h, -h),
        ):
            d2 = DiamondEvent(d.eta + dd.eta, d.xi + dd.xi, d.zeta + dd.zeta, d.rho + dd.rho)
            e2 = to_minkowski(d2)
            ds2 = (
                (e2.t - ev.t) ** 2 - (e2.x - ev.x) ** 2
                - (e2.y - ev.y) ** 2 - (e2.z - ev.z) ** 2
            )
            assert abs(line_element(d, dd) - ds2) < 1e-8 * h**2 + 1e-16

    def test_center_conformal_factor(self):
        # at the origin ds^2 = (deta^2 - dxi^2) since the factor is 1/4 * 4
        val = line_element(DiamondEvent(0, 0, 0, 0), DiamondEvent(1e-3, 0, 0, 0))
        assert abs(val - 1e-6) < 1e-18


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

