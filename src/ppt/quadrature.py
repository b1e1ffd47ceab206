"""Quadrature over axis-aligned boxes of dimension 1 to 3.

One adaptive scheme serves every dimension.  A box is integrated with the
tensor product of the 15-point Gauss-Kronrod rule (QUADPACK's ``qk15``).
The 7 Gauss nodes are among the 15 Kronrod nodes, so putting the Gauss
weights on one axis gives that axis's error estimate from the same 15^d
values.  The box of largest error is split first, in half along its worst
axis, so integrands with kinks or jumps (|p - 1| densities, step functions)
still converge: the offending boxes keep shrinking while smooth ones are
settled at once.  In 1-d this is plain adaptive GK15.  Every sum is a
``math.fsum`` of elementwise products, so no BLAS kernel, and hence no CPU,
decides the last bits.  Dimensions above 3 are unsupported.
Integrands follow the point-function convention of :mod:`ppt.core`, which
:func:`eval_points` enforces: an ``(n, d)`` batch of nodes in, ``n`` values out.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable

import numpy as np

from .errors import QuadratureError, UnsupportedDimensionError, ValidationError

__all__ = ["integrate", "eval_points", "pointwise"]

# QUADPACK qk15 (Piessens et al. 1983): the Kronrod nodes in [0, 1) from the
# outside in, each with its Kronrod weight and, at every second node (the
# nodes of the 7-point Gauss rule), its Gauss weight
_QK15 = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204, 0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238, 0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014, 0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
    (0.000000000000000000000000000000000, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327),
)
_XGK, _WGK, _WG = (np.array(column) for column in zip(*_QK15))
# the 15 nodes on [-1, 1] in ascending order, and their weights
_X = np.concatenate([-_XGK[:7], _XGK[::-1]])
_W_KRONROD = np.concatenate([_WGK[:7], _WGK[::-1]])
_W_GAUSS = np.concatenate([_WG[:7], _WG[::-1]])


def _tensor(axes) -> np.ndarray:
    return functools.reduce(np.multiply.outer, axes).ravel()


# per dimension: the 15^d nodes on [-1, 1]^d, and the rule's weights in
# row 0 with, in row 1 + k, the Kronrod minus Gauss weights on axis k
_NODES = {
    d: np.stack([g.ravel() for g in np.meshgrid(*[_X] * d, indexing="ij")], axis=-1) for d in (1, 2, 3)
}
_WEIGHTS = {
    d: np.stack(
        [_tensor([_W_KRONROD] * d)]
        + [_tensor([_W_KRONROD - _W_GAUSS if j == k else _W_KRONROD for j in range(d)]) for k in range(d)]
    )
    for d in (1, 2, 3)
}


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


def _fsum(terms: list[float]) -> float:
    """``math.fsum``, or where it refuses (inf - inf, or finite terms whose
    sum passes the largest double) the left-to-right sum, inf or nan."""
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return sum(terms)


def _rule(f, boxes) -> list[tuple[float, list[float]]]:
    """(value, per-axis error estimates) of the tensor GK15 rule on each box
    (lower, upper), from one call of ``f`` on all their nodes."""
    d = boxes[0][0].size
    pts = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES[d] for lo, hi in boxes])
    out = []
    for (lo, hi), vals in zip(boxes, eval_points(f, pts).reshape(len(boxes), -1)):
        volume = math.prod((0.5 * (hi - lo)).tolist())
        value, *errors = (volume * _fsum(row) for row in (_WEIGHTS[d] * vals).tolist())
        out.append((value, [abs(e) for e in errors]))
    return out


_MAX_PANELS = 4000  # boxes integrate may split the window into


def integrate(
    f: Callable,
    lower,
    upper,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-14,
) -> float:
    """Integrate ``f`` over the box [lower, upper] of dimension 1-3 to error
    at most max(rel_tol * |value|, abs_tol), splitting the panel (box) of
    largest error estimate first, in half along its worst axis.

    Raises :class:`QuadratureError`, with the five worst panels as its trace
    of (lower, upper, error), when ``_MAX_PANELS`` = 4000 panels have not
    reached the target.
    """
    lower = np.asarray(lower, float).reshape(-1)
    upper = np.asarray(upper, float).reshape(-1)
    if lower.size != upper.size:
        raise UnsupportedDimensionError("lower and upper must have equal length")
    if lower.size not in _NODES:
        raise UnsupportedDimensionError(f"dimension {lower.size} is not supported by the quadrature (max 3)")
    [(value, errors)] = _rule(f, [(lower, upper)])
    # heap of (-error, order, lower, upper, value, axis errors); order breaks ties deterministically
    order = 0
    heap = [(-sum(errors), order, lower, upper, value, errors)]
    total, total_err = value, sum(errors)
    while total_err > max(rel_tol * abs(total), abs_tol):
        if len(heap) >= _MAX_PANELS:
            raise QuadratureError(
                f"{lower.size}-d quadrature did not converge: error {total_err:.3e} with "
                f"{len(heap)} panels (target {max(rel_tol * abs(total), abs_tol):.3e})",
                trace=[(p[2].tolist(), p[3].tolist(), -p[0]) for p in heapq.nsmallest(5, heap)],
            )
        neg_err, _, lo, hi, value, errors = heapq.heappop(heap)
        axis = errors.index(max(errors))
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[axis] = right_lo[axis] = 0.5 * (lo[axis] + hi[axis])
        halves = [(lo, left_hi), (right_lo, hi)]
        total -= value
        total_err += neg_err
        for (blo, bhi), (bvalue, berrors) in zip(halves, _rule(f, halves)):
            order += 1
            heapq.heappush(heap, (-sum(berrors), order, blo, bhi, bvalue, berrors))
            total += bvalue
            total_err += sum(berrors)
    return _fsum([p[4] for p in heap])
