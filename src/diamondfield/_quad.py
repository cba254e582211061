"""Quadrature with error estimates from refinement: panel Gauss-Legendre
with doubling (integrate_adaptive), and nested trapezoid sums that halve
their step and reuse every node (integrate_trapezoid) for integrands analytic
in a strip about the real line that decay at both ends.  Both add the
rounding floor eps sum|f w| of their sums to the estimate and stop there.

Deterministic: node layout and summation order depend only on the inputs.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre

from .errors import ConvergenceError, DomainError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
PANEL_ORDER = 16  # Gauss-Legendre nodes per panel
_MAX_DOUBLINGS = 12  # panel doublings (or step halvings) before a quadrature gives up
_MAX_ORDER = 2048  # leggauss is O(n^3) in time and O(n^2) in memory: 0.7 s at 2,000
_MAX_NODES = 2**20  # nodes of one integrate pass or trapezoid grid
_EPS = np.finfo(float).eps


def gauss_legendre(order: int):
    """(x, w) of the order-node Gauss-Legendre rule on [-1, 1], cached;
    DomainError above _MAX_ORDER nodes."""
    if not order <= _MAX_ORDER:
        raise DomainError(f"a {order}-node Gauss-Legendre rule exceeds the limit of {_MAX_ORDER} nodes")
    if order not in _GL_CACHE:
        x, w = legendre.leggauss(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


def panel_grid(lo: float, hi: float, n_panels: int):
    """(mid, off, wt) of n_panels equal panels of PANEL_ORDER-node GL: the panel
    midpoints, the node offsets half * x and the weights half * w.  Equal
    panels are translates of one another, so every panel shares off and wt."""
    x, w = gauss_legendre(PANEL_ORDER)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return mid, half * x, half * w


def panel_nodes(lo: float, hi: float, n_panels: int):
    """Nodes and weights for n_panels equal panels of PANEL_ORDER-node GL, panel by
    panel: node i of panel p is mid[p] + off[i] with the numbers of panel_grid,
    so an integrand can factor over them (modes._panel_sum)."""
    mid, off, wt = panel_grid(lo, hi, n_panels)
    u = (mid[:, None] + off[None, :]).ravel()
    return u, np.broadcast_to(wt, (n_panels, PANEL_ORDER)).ravel()


def _sums(f, lo: float, hi: float, n_panels: int):
    """(sum f w, sum |f w|) over n_panels panels; ConvergenceError, before
    any node is built, when the pass would exceed _MAX_NODES nodes."""
    if not n_panels * PANEL_ORDER <= _MAX_NODES:  # also catches inf and NaN
        raise ConvergenceError(f"a quadrature pass of {n_panels * PANEL_ORDER:.6g} nodes exceeds "
                               f"the budget of {_MAX_NODES} nodes")
    n_panels = int(n_panels)
    u, w = panel_nodes(lo, hi, n_panels)
    vals = f(u) * w
    # panel-ordered summation keeps the result independent of evaluation order
    total = vals.reshape(vals.shape[:-1] + (n_panels, PANEL_ORDER)).sum(axis=-1).sum(axis=-1)
    return total, np.abs(vals).sum(axis=-1)


def integrate(f, lo: float, hi: float, n_panels: int):
    """Sum f over n_panels panels; ConvergenceError, before any node is built,
    when the pass would exceed _MAX_NODES nodes."""
    return _sums(f, lo, hi, n_panels)[0]


def integrate_adaptive(f, lo: float, hi: float, tol: float, est_freq: float = 1.0):
    """Integrate f over [lo, hi] doubling the panel count until two successive
    refinements agree within tol (absolute) plus the rounding floor
    eps sum|f w| of the last pass.  Returns (value, est_error), est_error the
    difference plus that floor; raises ConvergenceError after _MAX_DOUBLINGS,
    on a non-finite estimate, or before a pass of more than _MAX_NODES nodes.

    f may return an array whose last axis runs over the nodes: each component
    is summed and estimated as a scalar integrand would be, value has the
    leading shape, and est_error is the largest component estimate, so every
    component keeps doubling until the slowest has converged.  hi <= lo gives
    the oriented integral, 0 for an empty interval.  est_freq is the fastest
    oscillation of the integrand itself (the first panels take ~3 per
    period), not a sum of the frequencies of the functions multiplied into it.
    """
    # start with ~3 panels per oscillation of the fastest expected phase
    n0 = max(4, np.ceil((hi - lo) * max(est_freq, 1e-12) / (2.0 * np.pi) * 3.0))  # may be inf
    prev, _ = _sums(f, lo, hi, n0)
    for _ in range(_MAX_DOUBLINGS):
        n0 *= 2
        cur, size = _sums(f, lo, hi, n0)
        diff, floor = np.abs(cur - prev), _EPS * size
        err = np.max(diff + floor)
        if np.all(diff <= tol + floor):
            return cur, err
        if not np.isfinite(err):  # NaN never satisfies diff <= tol + floor
            raise ConvergenceError(f"quadrature error estimate is {err} (non-finite integrand)")
        prev = cur
    raise ConvergenceError(f"quadrature did not reach tol={tol:g} in {_MAX_DOUBLINGS} doublings "
                           f"(last err={err:g})")


def _check_grid(nodes):
    if not nodes <= _MAX_NODES:  # also catches inf and NaN
        raise ConvergenceError(f"a trapezoid grid of {nodes:.6g} nodes exceeds the budget of "
                               f"{_MAX_NODES} nodes")


def _node_sums(ys, ends=False):
    """[sum y, sum |y|, sum s] over the nodes, the last axis of y, for
    (y, s) = ys with s broadcast to y; the two end nodes at half weight when
    ends (the first trapezoid grid)."""
    y = np.asarray(ys[0])
    out = []
    for x in (y, np.abs(y), np.broadcast_to(ys[1], y.shape)):
        total = x.sum(axis=-1)
        out.append(total - 0.5 * (x[..., 0] + x[..., -1]) if ends else total)
    return out


def integrate_trapezoid(f, lo: float, hi: float, tol: float, step: float):
    """Integrate over [lo, hi] by trapezoid sums on nested uniform grids.

    The first grid has N = ceil(|hi - lo| / step) equal intervals of width
    h; each halving evaluates only the new midpoints, T_{h/2} = T_h / 2 +
    (h/2) sum f(midpoints), so every node is evaluated once.  For an
    integrand analytic in a strip about [lo, hi] that has decayed at both
    ends, or is even about an end, the error falls geometrically in 1/h
    (Trefethen & Weideman, SIAM Rev. 56, 385, 2014), and T_h - T_{2h}
    bounds the error of T_h once it falls.

    f(v, start, h) gets the nodes v = start + h * arange(v.size) of one grid
    or one set of midpoints, and returns (y, s): the integrand, nodes on the
    last axis of y, and s >= 0, broadcastable to y, a bound on the error of y
    at each node (a truncation, say); S = sum s w is summed on the grid like
    y.  Each component halves until |T_h - T_{2h}| <= tol + floor + 2 S,
    floor = eps sum|y w| the rounding of the sum and 2 S what the two sums'
    own errors can put into the difference.  Returns (value, est_error),
    est_error the largest component's |T_h - T_{2h}| + floor + S.
    ConvergenceError, naming the grid size, before a grid of more than
    _MAX_NODES nodes is built, on a non-finite estimate and after
    _MAX_DOUBLINGS halvings.  hi < lo gives the oriented integral, hi = lo 0.
    """
    n = abs(hi - lo) / step
    _check_grid(n + 1.0)
    N = max(1, math.ceil(n))
    h = (hi - lo) / N
    sums = _node_sums(f(lo + h * np.arange(N + 1), lo, h), ends=True)
    prev = h * sums[0]
    for _ in range(_MAX_DOUBLINGS):
        _check_grid(2.0 * N + 1.0)
        h *= 0.5
        mid = _node_sums(f(lo + h + 2.0 * h * np.arange(N), lo + h, 2.0 * h))
        sums = [a + b for a, b in zip(sums, mid)]
        N *= 2
        cur = h * sums[0]
        diff, floor, slack = np.abs(cur - prev), abs(h) * _EPS * sums[1], abs(h) * sums[2]
        err = np.max(diff + floor + slack)
        if np.all(diff <= tol + floor + 2.0 * slack):
            return cur, float(err)
        if not np.isfinite(err):  # NaN never satisfies the stop rule
            raise ConvergenceError(f"quadrature error estimate is {err} (non-finite integrand)")
        prev = cur
    raise ConvergenceError(f"trapezoid sums did not reach tol={tol:g} in {_MAX_DOUBLINGS} halvings "
                           f"(last err={err:g}, {N + 1} nodes)")
