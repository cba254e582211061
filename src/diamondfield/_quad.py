"""Panel Gauss-Legendre quadrature with doubling-based error estimates.

Deterministic: node layout and summation order depend only on the inputs.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre

from .errors import ConvergenceError, DomainError

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
PANEL_ORDER = 16  # Gauss-Legendre nodes per panel
_MAX_DOUBLINGS = 12  # panel doublings before integrate_adaptive gives up
_MAX_ORDER = 2048  # leggauss is O(n^3) in time and O(n^2) in memory: 0.7 s at 2,000
_MAX_NODES = 2**20  # nodes of one integrate pass


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


def integrate(f, lo: float, hi: float, n_panels: int):
    """Sum f over n_panels panels; ConvergenceError, before any node is built,
    when the pass would exceed _MAX_NODES nodes."""
    if not n_panels * PANEL_ORDER <= _MAX_NODES:  # also catches inf and NaN
        raise ConvergenceError(f"a quadrature pass of {n_panels * PANEL_ORDER:.6g} nodes exceeds "
                               f"the budget of {_MAX_NODES} nodes")
    n_panels = int(n_panels)
    u, w = panel_nodes(lo, hi, n_panels)
    vals = f(u) * w
    # panel-ordered summation keeps the result independent of evaluation order
    return vals.reshape(vals.shape[:-1] + (n_panels, PANEL_ORDER)).sum(axis=-1).sum(axis=-1)


def integrate_adaptive(f, lo: float, hi: float, tol: float, est_freq: float = 1.0):
    """Integrate f over [lo, hi] doubling the panel count until two successive
    refinements agree within tol (absolute).  Returns (value, est_error);
    raises ConvergenceError after _MAX_DOUBLINGS, on a non-finite estimate, or
    before a pass of more than _MAX_NODES nodes.

    f may return an array whose last axis runs over the nodes: each component
    is summed as a scalar integrand would be, value has the leading shape, and
    est_error is the largest component difference, so every component keeps
    doubling until the slowest has converged.  hi <= lo gives the oriented
    integral, 0 for an empty interval.  est_freq is the fastest oscillation
    of the integrand itself (the first panels take ~3 per period), not a sum
    of the frequencies of the functions multiplied into it.
    """
    # start with ~3 panels per oscillation of the fastest expected phase
    n0 = max(4, np.ceil((hi - lo) * max(est_freq, 1e-12) / (2.0 * np.pi) * 3.0))  # may be inf
    prev = integrate(f, lo, hi, n0)
    for _ in range(_MAX_DOUBLINGS):
        n0 *= 2
        cur = integrate(f, lo, hi, n0)
        err = np.max(np.abs(cur - prev))
        if err <= tol:
            return cur, err
        if not np.isfinite(err):  # NaN never satisfies err <= tol
            raise ConvergenceError(f"quadrature error estimate is {err} (non-finite integrand)")
        prev = cur
    raise ConvergenceError(f"quadrature did not reach tol={tol:g} in {_MAX_DOUBLINGS} doublings "
                           f"(last err={err:g})")
