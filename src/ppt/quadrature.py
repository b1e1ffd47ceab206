"""Quadrature over axis-aligned boxes.

d=1 uses adaptive Gauss-Legendre with a worst-panel-first refinement queue,
so integrands with kinks or jumps (|p - 1| densities, step functions) still
converge: the offending panel keeps shrinking while smooth panels are settled
at spectral accuracy.  d=2 and d=3 use tensor-product Gauss-Legendre grids
with node-doubling refinement and a Richardson extrapolation step once the
empirical convergence order stabilises.  Dimensions above 3 are unsupported.
Integrands follow the point-function convention of :mod:`ppt.core`, which
:func:`eval_points` enforces: an ``(n, d)`` batch of nodes in, ``n`` values out.
"""

from __future__ import annotations

import functools
import heapq
from typing import Callable

import numpy as np

from .errors import QuadratureError, UnsupportedDimensionError, ValidationError

__all__ = ["integrate", "integrate_1d", "integrate_nd", "eval_points", "pointwise"]

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def eval_points(f: Callable, pts) -> np.ndarray:
    """Evaluate the point function ``f`` on an ``(..., d)`` array of points.

    ``f`` must follow the package convention: vectorised over the last axis,
    returning values of shape ``pts.shape[:-1]``.  Any other shape raises
    :class:`ValidationError`; a callable written for one point at a time is
    adapted explicitly with :func:`pointwise`.
    """
    pts = np.asarray(pts, float)
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != pts.shape[:-1]:
        raise ValidationError(
            f"point function returned shape {vals.shape} on points of shape {pts.shape}, "
            f"expected {pts.shape[:-1]}; wrap a function of one point with ppt.pointwise"
        )
    return vals


def pointwise(f: Callable) -> Callable:
    """Adapt ``f(point) -> float`` to the last-axis convention (a row loop)."""

    @functools.wraps(f)
    def vectorised(x):
        x = np.asarray(x, float)
        rows = x.reshape(-1, x.shape[-1])
        return np.array([float(f(row)) for row in rows]).reshape(x.shape[:-1])

    return vectorised


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """(fine estimate, error estimate) on [a, b] via 15 vs 31 point GL."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x15, w15 = _gl_nodes(15)
    x31, w31 = _gl_nodes(31)
    v15 = eval_points(f, (mid + half * x15)[:, None])
    v31 = eval_points(f, (mid + half * x31)[:, None])
    i15 = half * float(w15 @ v15)
    i31 = half * float(w31 @ v31)
    return i31, abs(i31 - i15)


_MAX_PANELS = 4000  # panels integrate_1d may split [a, b] into


def integrate_1d(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-14,
) -> float:
    """Integrate ``f`` over [a, b] to error at most max(rel_tol * |value|,
    abs_tol), splitting the panel of largest error estimate first.

    Raises :class:`QuadratureError`, with the five worst panels as its
    trace, when ``_MAX_PANELS`` = 4000 panels have not reached the target.
    """
    val, err = _panel(f, a, b)
    # heap of (-error, order, a, b, value); order breaks ties deterministically
    order = 0
    heap = [(-err, order, a, b, val)]
    total, total_err = val, err
    while total_err > max(rel_tol * abs(total), abs_tol):
        if len(heap) >= _MAX_PANELS:
            trace = sorted(heap)[:5]
            raise QuadratureError(
                f"1-d quadrature did not converge: error {total_err:.3e} with "
                f"{len(heap)} panels (target {max(rel_tol * abs(total), abs_tol):.3e})",
                trace=[(p[2], p[3], -p[0]) for p in trace],
            )
        neg_err, _, pa, pb, pval = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lval, lerr = _panel(f, pa, pm)
        rval, rerr = _panel(f, pm, pb)
        total += (lval + rval) - pval
        total_err += (lerr + rerr) - (-neg_err)
        order += 1
        heapq.heappush(heap, (-lerr, order, pa, pm, lval))
        order += 1
        heapq.heappush(heap, (-rerr, order, pm, pb, rval))
    return total


def _tensor_value(f, lower: np.ndarray, upper: np.ndarray, n: int) -> float:
    d = lower.size
    x, w = _gl_nodes(n)
    axes_pts, axes_w = [], []
    for k in range(d):
        mid, half = 0.5 * (lower[k] + upper[k]), 0.5 * (upper[k] - lower[k])
        axes_pts.append(mid + half * x)
        axes_w.append(half * w)
    grids = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = eval_points(f, pts).reshape([n] * d)
    for k in range(d - 1, -1, -1):
        vals = np.tensordot(vals, axes_w[k], axes=([k], [0]))
    return float(vals)


_REFINE_SCHEDULE = (8, 12, 16, 24, 32, 48, 64, 96)


def integrate_nd(
    f: Callable,
    lower,
    upper,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-14,
) -> float:
    lower = np.asarray(lower, float).reshape(-1)
    upper = np.asarray(upper, float).reshape(-1)
    estimates = []
    for n in _REFINE_SCHEDULE:
        estimates.append(_tensor_value(f, lower, upper, n))
        if len(estimates) < 2:
            continue
        cur, prev = estimates[-1], estimates[-2]
        err = abs(cur - prev)
        if len(estimates) >= 3:
            # Richardson step when successive increments shrink geometrically
            prev2 = estimates[-3]
            d1, d2 = prev - prev2, cur - prev
            if d2 != 0 and abs(d1) > abs(d2) * 1.5:
                ratio = d1 / d2
                cur = cur + d2 / (ratio - 1.0)
                err = abs(d2 / (ratio - 1.0)) + abs(d2)
        if err <= max(rel_tol * abs(cur), abs_tol):
            return cur
    raise QuadratureError(
        f"tensor-grid quadrature did not converge; successive estimates {estimates}",
        trace=estimates,
    )


def integrate(
    f: Callable,
    lower,
    upper,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-14,
) -> float:
    """Integrate ``f`` over the box [lower, upper], relative error <= rel_tol."""
    lower = np.asarray(lower, float).reshape(-1)
    upper = np.asarray(upper, float).reshape(-1)
    if lower.size != upper.size:
        raise UnsupportedDimensionError("lower and upper must have equal length")
    d = lower.size
    if d == 1:
        return integrate_1d(f, float(lower[0]), float(upper[0]), rel_tol, abs_tol)
    if d in (2, 3):
        return integrate_nd(f, lower, upper, rel_tol, abs_tol)
    raise UnsupportedDimensionError(
        f"dimension {d} is not supported by the tensor-grid scheme (max 3)"
    )
