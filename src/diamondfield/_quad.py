"""Quadrature with error estimates from refinement, on two rules: equal
Gauss-Legendre panels whose count doubles (integrate_adaptive), and nested
trapezoid sums that halve their step and reuse every node
(integrate_trapezoid), for integrands analytic in a strip about the real
line that decay at both ends.

One integrand contract serves both: f(nodes, *grid) gets the nodes of one
call and the numbers that lay them out, so it can factor over them, and
returns (y, s): y the integrand, nodes on its last axis, and s >= 0,
broadcastable to y, a bound on the error of y at each node.  One loop
(_refine) refines until two passes agree, so at least two passes are
always summed: a Gauss-Legendre pass is one call, and the first call of
the trapezoid rule covers its first two levels.  Deterministic: node
layout and summation order depend only on the inputs.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre

from .errors import ConvergenceError, DomainError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
PANEL_ORDER = 16  # Gauss-Legendre nodes per panel
_MAX_DOUBLINGS = 12  # panel doublings (or step halvings) before a quadrature gives up
_MAX_ORDER = 2048  # leggauss is O(n^3) in time and O(n^2) in memory: 0.7 s at 2,000
_MAX_NODES = 2**20  # nodes of one Gauss-Legendre pass or trapezoid grid
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
    panels are translates of one another, so every panel shares off and wt.
    ConvergenceError, before any node is built, past _MAX_NODES nodes."""
    if not n_panels * PANEL_ORDER <= _MAX_NODES:  # also catches inf and NaN
        raise ConvergenceError(f"a quadrature pass of {n_panels * PANEL_ORDER:.6g} nodes exceeds "
                               f"the budget of {_MAX_NODES} nodes")
    x, w = gauss_legendre(PANEL_ORDER)
    edges = np.linspace(lo, hi, int(n_panels) + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return mid, half * x, half * w


def panel_nodes(lo: float, hi: float, n_panels: int):
    """Nodes and weights for n_panels equal panels of PANEL_ORDER-node GL, panel by
    panel: node i of panel p is mid[p] + off[i] with the numbers of panel_grid."""
    mid, off, wt = panel_grid(lo, hi, n_panels)
    return np.add.outer(mid, off).ravel(), np.tile(wt, mid.size)


def _refine(passes, tol):
    """(value, est_error) from passes yielding (value, floor, S) per refinement,
    floor = eps sum|y w| the rounding of the sum and S = sum s |w|.  Each
    component refines until |cur - prev| <= tol + floor + 2 S, 2 S what the
    two sums' own errors can put into the difference; est_error is the
    largest component's |cur - prev| + floor + S.  ConvergenceError on a
    non-finite estimate and after _MAX_DOUBLINGS refinements."""
    prev = next(passes)[0]
    for _ in range(_MAX_DOUBLINGS):
        cur, floor, slack = next(passes)
        diff = np.abs(cur - prev)
        err = np.max(diff + floor + slack)
        if np.all(diff <= tol + floor + 2.0 * slack):
            return cur, float(err)
        if not np.isfinite(err):  # NaN never satisfies the stop rule
            raise ConvergenceError(f"quadrature error estimate is {err} (non-finite integrand)")
        prev = cur
    raise ConvergenceError(f"quadrature did not reach tol={tol:g} in {_MAX_DOUBLINGS} refinements "
                           f"(last err={err:g})")


def integrate_adaptive(f, lo: float, hi: float, tol: float, est_freq: float = 1.0):
    """(value, est_error) of Int_lo^hi f on equal Gauss-Legendre panels, their
    count doubled per refinement (_refine).  f(u, mid, off) gets the nodes
    u = mid[p] + off[i] of panel_grid, panel by panel, and y w is summed panel
    by panel.  Leading axes of y are components with their own estimates;
    all double until the slowest converges.  ConvergenceError also before a
    pass of more than _MAX_NODES nodes.  hi <= lo gives the oriented
    integral, 0 for an empty interval.  est_freq is the fastest oscillation
    of the integrand itself (the first panels take ~3 per period), not a sum
    of the frequencies of the functions multiplied into it.
    """
    def passes(n_panels):
        while True:
            mid, off, wt = panel_grid(lo, hi, n_panels)
            y, s = f(np.add.outer(mid, off).ravel(), mid, off)
            shape = np.shape(y)[:-1] + (mid.size, PANEL_ORDER)
            vals = np.reshape(y, shape) * wt
            slack = np.broadcast_to(s, np.shape(y)).reshape(shape) * np.abs(wt)
            # panel-ordered sums keep the result independent of evaluation order
            yield (vals.sum(axis=-1).sum(axis=-1), _EPS * np.abs(vals).sum(axis=(-2, -1)),
                   slack.sum(axis=-1).sum(axis=-1))
            n_panels *= 2

    # start with ~3 panels per oscillation of the fastest expected phase (inf
    # or NaN fails panel_grid's budget check)
    return _refine(passes(max(4, np.ceil((hi - lo) * max(est_freq, 1e-12) / (2.0 * np.pi) * 3.0))), tol)


def _check_grid(nodes):
    if not nodes <= _MAX_NODES:  # also catches inf and NaN
        raise ConvergenceError(f"a trapezoid grid of {nodes:.6g} nodes exceeds the budget of "
                               f"{_MAX_NODES} nodes")


def _node_sums(ys, nodes=np.s_[:], ends=False):
    """[sum y, sum |y|, sum s] over the nodes (an index of the last axis) of
    y, for (y, s) = ys with s broadcast to y; the two end nodes at half
    weight when ends (the coarsest grid)."""
    y = np.asarray(ys[0])
    y, s = y[..., nodes], np.broadcast_to(ys[1], y.shape)[..., nodes]
    out = []
    for x in (y, np.abs(y), s):
        total = x.sum(axis=-1)
        out.append(total - 0.5 * (x[..., 0] + x[..., -1]) if ends else total)
    return out


def _level(sums, h):
    """(value, floor, S) for _refine of the trapezoid level of step h with
    these unweighted node sums."""
    return h * sums[0], abs(h) * _EPS * sums[1], abs(h) * sums[2]


def integrate_trapezoid(f, lo: float, hi: float, tol: float, step: float):
    """(value, est_error) of Int_lo^hi f by trapezoid sums on nested uniform
    grids, the step halved per refinement (_refine).

    With N = ceil(|hi - lo| / step) and h = (hi - lo) / N, one call of f on
    the 2N + 1 nodes of step h/2 gives the first two levels: T_h sums the
    even nodes, the end nodes at half weight, and T_{h/2} = T_h / 2 +
    (h/2) sum f(odd nodes) adds the rest.  _refine compares at least two
    levels, so both are always needed.  Each later halving evaluates only
    the new midpoints, so every node is evaluated once.  For an integrand
    analytic in a strip about [lo, hi] that has decayed at both ends, or is
    even about an end, the error falls geometrically in 1/h (Trefethen &
    Weideman, SIAM Rev. 56, 385, 2014), and T_h - T_{2h} bounds the error
    of T_h once it falls.  f(v, start, h) gets the nodes
    v = start + h * arange(v.size) of the first call (the first grid and
    its midpoints) or of one later set of midpoints; y, |y| and s are
    summed unweighted and scaled by the step.
    ConvergenceError, naming the grid size, before a grid of more than
    _MAX_NODES nodes is built.  hi < lo gives the oriented integral, hi = lo 0.
    """
    n = np.ceil(abs(hi - lo) / step)
    _check_grid(2.0 * n + 1.0)

    def passes(N):
        h = 0.5 * (hi - lo) / N
        ys = f(lo + h * np.arange(2 * N + 1), lo, h)
        sums = _node_sums(ys, np.s_[::2], ends=True)
        yield _level(sums, 2.0 * h)
        mid = _node_sums(ys, np.s_[1::2])
        while True:
            sums = [a + b for a, b in zip(sums, mid)]
            yield _level(sums, h)
            N *= 2
            _check_grid(2.0 * N + 1.0)
            h *= 0.5
            mid = _node_sums(f(lo + h + 2.0 * h * np.arange(N), lo + h, 2.0 * h))

    return _refine(passes(max(1, int(n))), tol)
