"""Tail estimates, Laplace bounds, the Stirling sandwich, L1-Poincare and
co-area identities, surface measures and isoperimetric ratios for Poisson
functionals.

Bound formulas are evaluated in log space and exponentiated at the end, so
deviation levels up to about 1e3 stay numerically stable.  Exact Poisson
computations (count tails, count-threshold surface measures) use closed-form
probability-mass sums, making the corresponding properties assertable without
Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _add_one_point_values, nested_gradient_mc
from .core import (
    Configuration,
    Estimate,
    IntensityMeasure,
    SeedSpec,
    Window,
    estimate_from_values,
)
from .errors import ValidationError
from .quadrature import integrate
from .simulate import poisson_batch_with_rng

__all__ = [
    "TailQuery",
    "upper_int_part",
    "poisson_pmf",
    "poisson_tail_exact",
    "laplace_bound_lipschitz",
    "tail_bound_lipschitz",
    "tail_bound_count_sharp",
    "tail_bound_rho_eta",
    "rho_eta_tail_exact",
    "stirling_bounds",
    "tail_grid",
    "CountThresholdEvent",
    "CountAtLeastEvent",
    "surface_measure",
    "count_event_exact",
    "isoperimetric_ratio",
    "poincare_l1_check",
    "coarea_check",
    "isoperimetric_bounds",
]


@dataclass(frozen=True)
class TailQuery:
    """Deviation query: reference mass (count mass or gradient norm) and level r."""

    mass: float
    r: float

    def __post_init__(self):
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValidationError("mass must be a positive finite real")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValidationError("r must be a positive finite real")


def upper_int_part(R: float) -> int:
    """Smallest positive integer >= R; integers map to themselves."""
    if not (R > 0 and math.isfinite(R)):
        raise ValidationError(f"upper integer part needs R > 0, got {R}")
    return max(1, int(math.ceil(R)))


def poisson_pmf(mass: float, k: int) -> float:
    if not 0 <= mass < math.inf or k < 0:  # NaN fails too
        raise ValidationError("poisson_pmf needs a finite mass >= 0 and k >= 0")
    if mass == 0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mass) - mass - math.lgamma(k + 1))


def poisson_tail_exact(mass: float, k: int) -> float:
    """P(N >= k) for N ~ Poisson(mass), relative error below 1e-12.

    For k below the mean the complement of the lower sum is accurate (the
    tail is order one); above the mean the tail is summed directly starting
    from the stable log-space pmf at k.
    """
    if not 0 < mass < math.inf:
        raise ValidationError("mass must be positive and finite")
    if k <= 0:
        return 1.0
    if k <= mass:
        return 1.0 - _poisson_lower(mass, k - 1)
    t = poisson_pmf(mass, k)
    if t == 0.0:
        return 0.0  # below double-precision range
    s = t
    i = k
    while True:
        i += 1
        t *= mass / i
        s += t
        if t <= s * 1e-17 and mass / (i + 1) < 0.9:
            return s


def laplace_bound_lipschitz(lam: float, c: float) -> float:
    """Laplace-transform bound exp(c (e^lam - lam - 1)) for centered functionals
    whose add-one-point gradient has L1(sigma) norm at most c."""
    if not (lam > 0 and c > 0):
        raise ValidationError("laplace bound needs lam > 0 and c > 0")
    return math.exp(c * (math.expm1(lam) - lam))


def tail_bound_lipschitz(q: TailQuery) -> float:
    """Deviation bound exp(r - (r + c) log(1 + r/c)), c = q.mass; decreasing in r."""
    c, r = q.mass, q.r
    return math.exp(r - (r + c) * math.log1p(r / c))


def tail_bound_count_sharp(q: TailQuery) -> float:
    """Sharper count-tail bound with the polynomial prefactor.

    With m = q.mass, K = upper_int_part(m + r):
    (K / r) exp(K - m - K log(K/m)) / sqrt(2 pi K).
    """
    m, r = q.mass, q.r
    K = upper_int_part(m + r)
    log_val = (
        math.log(K)
        - math.log(r)
        + (K - m - K * (math.log(K) - math.log(m)))
        - 0.5 * math.log(2.0 * math.pi * K)
    )
    return math.exp(log_val)


def tail_bound_rho_eta(total_mass: float, r: float) -> float:
    """Deviation bound for the total-variation distance to a fixed configuration.

    With m = total_mass, Km = [m], Kr = [m + r] (upper integer parts):
    sqrt(2 pi Km) Km^Km e^{1/(12 Km)} / m^m
      * exp(Kr - Km - Kr log(Kr / (Kr - r))) / sqrt(2 pi Kr).
    """
    if not (total_mass > 0 and r > 0):
        raise ValidationError("needs total_mass > 0 and r > 0")
    m = total_mass
    km = upper_int_part(m)
    kr = upper_int_part(m + r)
    log_pre = 0.5 * math.log(2.0 * math.pi * km) + km * math.log(km) + 1.0 / (12.0 * km) - m * math.log(m)
    log_main = (kr - km) - kr * math.log(kr / (kr - r)) - 0.5 * math.log(2.0 * math.pi * kr)
    return math.exp(log_pre + log_main)


def rho_eta_tail_exact(total_mass: float, r: float) -> float:
    """Exact tail of the distance-to-eta functional about its mean.

    Under a diffuse intensity the sampled atoms never hit the atoms of a fixed
    finite configuration, so the distance equals total count plus |eta| and
    the deviation event reduces to a count tail: P(N >= [mass + r]).
    """
    if not (total_mass > 0 and r > 0):
        raise ValidationError("needs total_mass > 0 and r > 0")
    return poisson_tail_exact(total_mass, upper_int_part(total_mass + r))


def stirling_bounds(N: int) -> tuple[float, float]:
    """Two-sided factorial sandwich:
    sqrt(2 pi) N^{N+1/2} e^{-N}  <=  N!  <=  same * e^{1/(12N)}."""
    if N < 1:
        raise ValidationError("N must be a positive integer")
    log_lower = 0.5 * math.log(2.0 * math.pi) + (N + 0.5) * math.log(N) - N
    return math.exp(log_lower), math.exp(log_lower + 1.0 / (12.0 * N))


def tail_grid(masses, rs) -> list[dict]:
    """Rows (mass, r, exact, bound_lipschitz, bound_sharp) over a grid.

    ``exact`` is the count tail P(N >= [mass + r]); the Lipschitz bound is
    applied to the centered count with c = mass.
    """
    rows = []
    for m in masses:
        for r in rs:
            q = TailQuery(mass=float(m), r=float(r))
            rows.append(
                {
                    "mass": float(m),
                    "r": float(r),
                    "exact": poisson_tail_exact(float(m), upper_int_part(float(m) + float(r))),
                    "bound_lipschitz": tail_bound_lipschitz(q),
                    "bound_sharp": tail_bound_count_sharp(q),
                }
            )
    return rows


# --------------------------------------------------------------------------
# events, surface measures, isoperimetry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CountThresholdEvent:
    """Indicator of {count in region <= k} (whole window when region is None)."""

    k: int
    region: Window | None = None

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError("threshold k must be nonnegative")

    def __call__(self, config: Configuration) -> float:
        count = config.n if self.region is None else config.count_in(self.region)
        return 1.0 if count <= self.k else 0.0

    def stack(self, atoms: np.ndarray, window: Window) -> np.ndarray:
        return (_stacked_counts(atoms, self.region) <= self.k).astype(float)


@dataclass(frozen=True)
class CountAtLeastEvent:
    """Indicator of {count in region >= m} (whole window when region is None)."""

    m: int
    region: Window | None = None

    def __post_init__(self):
        if self.m < 0:
            raise ValidationError("threshold m must be nonnegative")

    def __call__(self, config: Configuration) -> float:
        count = config.n if self.region is None else config.count_in(self.region)
        return 1.0 if count >= self.m else 0.0

    def stack(self, atoms: np.ndarray, window: Window) -> np.ndarray:
        return (_stacked_counts(atoms, self.region) >= self.m).astype(float)


def _stacked_counts(atoms: np.ndarray, region: Window | None) -> np.ndarray:
    """Atom count of each row of a ``(k, n, d)`` stack, in ``region`` if given.

    ``region`` must have the atoms' dimension, as in ``Configuration.count_in``.
    """
    if region is None:
        return np.full(atoms.shape[0], atoms.shape[1])
    region._require_dim(atoms.shape[-1], "count")
    return np.count_nonzero(region.contains(atoms), axis=-1)


def _region_mass(sigma: IntensityMeasure, region: Window | None) -> float:
    if region is None:
        return sigma.total_mass
    lo, hi = region.bounds()
    return float(integrate(sigma.density_at, lo, hi, rel_tol=1e-8))


def surface_measure(
    A: Callable[[Configuration], float],
    sigma: IntensityMeasure,
    n_samples: int,
    seed: SeedSpec,
    inner_samples: int = 32,
) -> Estimate:
    """Monte Carlo surface measure: expected sigma-integral of the absolute
    add-one-point difference of the indicator of A."""
    values, _ = nested_gradient_mc(A, sigma, n_samples, inner_samples, seed)
    return estimate_from_values(values, seed)


def _poisson_lower(mass: float, k: int) -> float:
    """P(N <= k), summed from pmf(k) downward (stable for k below the mean)."""
    t = poisson_pmf(mass, k)
    s = t
    for i in range(k, 0, -1):
        t *= i / mass
        s += t
    return min(s, 1.0)


def count_event_exact(A, sigma: IntensityMeasure) -> tuple[Estimate, float, float]:
    """Exact (witness ratio, surface measure, P(A)) of a count-threshold
    event; the ratio is the value of :func:`isoperimetric_ratio`.

    {count >= m} is the complement of {count <= m - 1}.  Adding a point
    inside the region crosses {count <= k} exactly on {count = k}, so the
    surface equals region_mass * P(count = k), shared by an event and its
    complement.  The smaller of P(A) and 1 - P(A) is computed directly (no
    cancellation), and the region mass is integrated once.  A degenerate
    event (probability 0 or 1, such as {count >= 0}) raises.
    """
    complemented = isinstance(A, CountAtLeastEvent)
    if complemented:
        if A.m == 0:
            raise ValidationError("event probability 1.0 is degenerate")
        k = A.m - 1
    elif isinstance(A, CountThresholdEvent):
        k = A.k
    else:
        raise ValidationError("exact values only for count-threshold events")
    mass = _region_mass(sigma, A.region)
    q = poisson_tail_exact(mass, k + 1) if mass > 0 else 0.0  # P(count > k)
    if q < 0.5:
        p = 1.0 - q
    else:
        p = _poisson_lower(mass, k)
        q = 1.0 - p
    if complemented:
        p, q = q, p
    if not (p > 0.0 and q > 0.0):
        raise ValidationError(f"event probability {p} is degenerate")
    s = mass * poisson_pmf(mass, k)
    return Estimate(mean=2.0 * s / (p * q), std_error=0.0, n_samples=1, seed=None), s, p


def isoperimetric_ratio(
    A: Callable[[Configuration], float],
    sigma: IntensityMeasure,
    n_samples: int,
    seed: SeedSpec,
    inner_samples: int = 32,
) -> Estimate:
    """Witness ratio 2 * surface(A) / (P(A) (1 - P(A))).

    Count-threshold events take the exact closed-form path (zero standard
    error); anything else uses nested Monte Carlo for the surface and an
    independent stream for the probability, with delta-method error
    propagation.  Degenerate events (estimated probability 0 or 1) raise.
    """
    if isinstance(A, (CountThresholdEvent, CountAtLeastEvent)):
        return count_event_exact(A, sigma)[0]
    surf = surface_measure(A, sigma, n_samples, seed, inner_samples)
    configs = poisson_batch_with_rng(sigma, n_samples, seed.rng(7, 0))
    ind = np.array([float(A(w)) for w in configs])
    if np.any((ind != 0.0) & (ind != 1.0)):
        raise ValidationError("A must be an indicator functional")
    p_hat = float(ind.mean())
    if p_hat <= 0.0 or p_hat >= 1.0:
        raise ValidationError(f"estimated event probability {p_hat} is degenerate")
    se_p = float(ind.std(ddof=1) / math.sqrt(n_samples))
    denom = p_hat * (1.0 - p_hat)
    ratio = 2.0 * surf.mean / denom
    # delta method in (surface, probability)
    dsurf = 2.0 / denom
    dprob = -2.0 * surf.mean * (1.0 - 2.0 * p_hat) / denom**2
    se = math.hypot(dsurf * surf.std_error, dprob * se_p)
    return Estimate(mean=ratio, std_error=se, n_samples=n_samples, seed=seed)


def isoperimetric_bounds(total_mass: float) -> tuple[float, float]:
    """Two-sided bracket (1, m / (1 - e^{-m})) for the isoperimetric constant."""
    if not (total_mass > 0 and math.isfinite(total_mass)):
        raise ValidationError("total_mass must be a positive finite real")
    return 1.0, total_mass / (-math.expm1(-total_mass))


# --------------------------------------------------------------------------
# L1-Poincare and co-area checks
# --------------------------------------------------------------------------


def poincare_l1_check(
    F: Callable[[Configuration], float],
    sigma: IntensityMeasure,
    n_samples: int,
    seed: SeedSpec,
    inner_samples: int = 32,
) -> tuple[Estimate, Estimate]:
    """Both sides of the L1 inequality E|F - EF| <= 2 E int |grad F| d sigma.

    Returns (lhs, rhs) as independent Monte Carlo estimates; the caller
    asserts lhs <= rhs within combined error.
    """
    configs = poisson_batch_with_rng(sigma, n_samples, seed.rng(3, 0))
    vals = np.array([float(F(w)) for w in configs])
    lhs = estimate_from_values(np.abs(vals - vals.mean()), seed)
    grads, _ = nested_gradient_mc(F, sigma, n_samples, inner_samples, seed, base_path=4)
    rhs = estimate_from_values(2.0 * grads, seed)
    return lhs, rhs


_COAREA_MAX_LEVELS = 10_000  # widest observed range coarea_check sums levels over


def coarea_check(
    F: Callable[[Configuration], float],
    sigma: IntensityMeasure,
    n_samples: int,
    seed: SeedSpec,
    inner_samples: int = 32,
) -> tuple[Estimate, Estimate]:
    """Both sides of the co-area identity for integer-valued functionals.

    lhs estimates E int |grad F| d sigma directly; rhs sums the surface
    integrand of {F > t} over half-integer thresholds t spanning the observed
    range, on an independent stream.  The two agree within combined Monte
    Carlo error.  An observed range wider than ``_COAREA_MAX_LEVELS`` =
    10000 levels raises :class:`ValidationError`, because the level sum
    holds n_samples x inner_samples x levels comparisons at once.

    The rhs stream (6) is drawn and checked first, so that a functional
    that is not finite, not integer-valued or too wide in range is rejected
    before the lhs stream (5) is drawn; the streams are independent, so
    the order changes no value.
    """
    mass = sigma.total_mass
    f0, f1 = _add_one_point_values(
        F, sigma, n_samples, inner_samples, seed.rng(6, 0), seed.rng(6, 1)
    )
    if mass > 0:
        observed = np.concatenate([f0, f1.ravel()])
        if not np.all(np.isfinite(observed)):
            raise ValidationError("co-area check requires a finite functional")
        if np.any(np.abs(observed - np.round(observed)) > 1e-9):
            raise ValidationError("co-area check requires an integer-valued functional")
        lo, hi = float(observed.min()), float(observed.max())
        if hi - lo > _COAREA_MAX_LEVELS:
            raise ValidationError(f"observed range [{lo}, {hi}] too wide for the level sum")

    lhs_vals, _ = nested_gradient_mc(F, sigma, n_samples, inner_samples, seed, base_path=5)
    lhs = estimate_from_values(lhs_vals, seed)
    if mass <= 0:
        return lhs, estimate_from_values(np.zeros(n_samples), seed)
    thresholds = np.arange(math.floor(lo) + 0.5, hi, 1.0)
    rhs_vals = np.zeros(n_samples)
    if thresholds.size:
        above0 = f0[:, None, None] > thresholds[None, None, :]
        above1 = f1[:, :, None] > thresholds[None, None, :]
        level_mass = np.abs(above1.astype(float) - above0.astype(float)).sum(axis=2)
        rhs_vals = mass * level_mass.mean(axis=1)
    rhs = estimate_from_values(rhs_vals, seed)
    return lhs, rhs
