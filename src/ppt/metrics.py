"""Distances between individual configurations.

Values on the extended half-line are plain floats with ``math.inf`` as the
explicit infinite value (never a sentinel): comparisons stay total and the
Wasserstein-type distance between configurations of different sizes is +inf.

Marked configurations (time plus spatial marks) reuse ``Configuration`` with
dimension d+1 where coordinate 0 is the time; the marked ground cost
kappa(x, y)^2 + |t - s|^2 is then exactly the squared Euclidean distance on
the extended space.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Configuration, _require_shared_window, multiset_equal
from .errors import ValidationError
from .transport import assignment_solve

__all__ = [
    "rho0",
    "rho1",
    "rho2",
    "rho1_normalized",
    "rho2_normalized",
    "rho2_marked",
]


_TINY = 2.0**-1022  # the smallest normal double
_CLIP = 2.0**256
# above this a square leaves less than 2^256 of headroom below overflow for
# the sum of squares and the assignment's potentials
_HUGE = 2.0**768


def rho0(omega: Configuration, eta: Configuration) -> int:
    """Trivial distance: 0 iff the two multisets of atoms coincide, else 1."""
    _require_shared_window(omega, eta)
    return 0 if multiset_equal(omega, eta) else 1


def rho1(omega: Configuration, eta: Configuration) -> int:
    """Total-variation distance: number of unmatched atoms, both directions."""
    _require_shared_window(omega, eta)
    diff = omega.multiset()
    diff.subtract(eta.multiset())
    return sum(abs(c) for c in diff.values())


def rho2(omega: Configuration, eta: Configuration) -> float:
    """Euclidean transport distance between equal-size configurations.

    +inf when the atom counts differ (no coupling configuration exists);
    otherwise the square root of the minimal sum of squared Euclidean gaps
    over bijections of atoms, solved exactly as an assignment problem.

    The two configurations are taken in an order that depends only on their
    multisets of atoms, so rho2(omega, eta) and rho2(eta, omega) run the
    same computation and agree bit for bit.  When a squared gap is above
    2^768 (or overflows), or the squared gap of a matched pair of distinct
    atoms is subnormal or zero, the assignment is solved on the gaps scaled
    by a power of two, so rho2 is 0.0 only on multiset-equal pairs, and
    +inf on equal counts only past the largest double.  Wherever no square
    is that large and no matched square is subnormal, the value is the
    unscaled one, bit for bit.
    """
    _require_shared_window(omega, eta)
    if omega.n != eta.n:
        return math.inf
    if omega.n == 0:
        return 0.0
    if omega.n > 1 and sorted(eta.atoms.tolist()) < sorted(omega.atoms.tolist()):
        omega, eta = eta, omega
    with np.errstate(over="ignore"):  # a gap past the largest double: see below
        gaps = omega.atoms[:, None, :] - eta.atoms[None, :, :]
    sq = np.einsum("ijk,ijk->ij", gaps, gaps)  # +inf, without a warning, on overflow
    if omega.n == 1 and (_TINY <= sq[0, 0] < math.inf or not gaps.any()):
        return math.sqrt(sq[0, 0])  # the fsum of one matched gap is that gap
    rows = np.arange(omega.n)
    if sq.max() > _HUGE:
        # match on the gaps scaled by the power of two that puts the largest
        # one in [0.5, 1), where no square is large, then solve again scaled
        # by the matched gaps alone; a gap beyond the largest double is
        # first kept finite by halving the atoms
        half = int(np.isinf(gaps).any())
        gaps = np.ldexp(omega.atoms, -half)[:, None, :] - np.ldexp(eta.atoms, -half)[None, :, :]
        scaled = np.ldexp(gaps, -math.frexp(float(np.max(np.abs(gaps))))[1])
        sq = np.einsum("ijk,ijk->ij", scaled, scaled)
        perm = rows if omega.n == 1 else assignment_solve(sq)[0]
        return _rho2_rescaled(gaps, perm, half)
    perm = rows if omega.n == 1 else assignment_solve(sq)[0]
    matched = sq[rows, perm]
    if matched.min() < _TINY and gaps[rows, perm][matched < _TINY].any():
        # a matched square of nonzero gaps is subnormal or zero, so both the
        # sum and the matching may be wrong
        return _rho2_rescaled(gaps, perm)
    # fsum of the matched gaps is exactly rounded, hence independent of the
    # order of the atoms
    return math.sqrt(math.fsum(matched))


def _rho2_rescaled(gaps: np.ndarray, perm: np.ndarray, exp: int = 0) -> float:
    """2^exp times rho2 solved on ``gaps`` scaled by the power of two that
    puts the largest gap matched by ``perm`` in [0.5, 1), and scaled back.

    The matching ``perm`` then costs under n*d, so a gap clipped at 2^256
    is never matched, and no scaled square overflows.
    """
    rows = np.arange(perm.size)
    top = math.frexp(float(np.max(np.abs(gaps[rows, perm]))))[1]
    # Unmatched gaps may overflow to inf before the clip, harmlessly; a
    # value past the largest double is +inf.
    with np.errstate(over="ignore"):
        gaps = np.clip(np.ldexp(gaps, -top), -_CLIP, _CLIP)
        sq = np.einsum("ijk,ijk->ij", gaps, gaps)
        perm = rows if rows.size == 1 else assignment_solve(sq)[0]
        return float(np.ldexp(math.sqrt(math.fsum(sq[rows, perm])), top + exp))


def rho1_normalized(omega: Configuration, eta: Configuration) -> float:
    """Total variation between the two count-normalised atomic measures.

    Atoms present in both configurations contribute the exact per-atom mass
    difference |k/omega(L) - l/eta(L)|.  Not lower semicontinuous under vague
    convergence, hence unusable for duality arguments; provided for
    comparisons with the customary normalised notion.
    """
    _require_shared_window(omega, eta)
    if omega.n == 0 or eta.n == 0:
        raise ValidationError("normalised total variation needs nonempty configurations")
    cw, ce = omega.multiset(), eta.multiset()
    nw, ne = omega.n, eta.n
    tv = 0.0
    for atom in cw.keys() | ce.keys():
        tv += abs(cw.get(atom, 0) / nw - ce.get(atom, 0) / ne)
    return tv


def rho2_normalized(omega: Configuration, eta: Configuration) -> float:
    """Count-normalised Euclidean transport distance.

    rho2 / omega(L) when the counts are equal and nonzero, otherwise the
    count gap |omega(L) - eta(L)| (dimensionless branch).
    """
    _require_shared_window(omega, eta)
    if omega.n == eta.n and omega.n != 0:
        return rho2(omega, eta) / omega.n
    return float(abs(omega.n - eta.n))


def rho2_marked(omega: Configuration, eta: Configuration) -> float:
    """Transport distance for marked configurations on [0, T] x marks.

    Coordinate 0 is the time; the ground cost adds the squared time gap to
    the squared spatial distance, which is the squared Euclidean cost on the
    extended space, so this is rho2 in dimension d+1.
    """
    if omega.dim < 2:
        raise ValidationError("marked configurations need dimension >= 2 (time + marks)")
    return rho2(omega, eta)
