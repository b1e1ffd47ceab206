"""Closed-form and Monte Carlo upper bounds on transport distances between a
Poisson law and nearby laws (another Poisson, Cox, Gibbs, time-changed).

Each operation returns a :class:`BoundResult` carrying the value, the method
used, a standard error (zero unless Monte Carlo) and a reproducibility digest
of the inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    Configuration,
    IntensityMeasure,
    SeedSpec,
    _checked_atoms,
    _functional_values,
    _StackedFunctional,
    estimate_from_values,
)
from .errors import InternalConsistencyError, ValidationError
from .quadrature import eval_points, integrate
from .simulate import (
    TimeChangeSpec,
    _stacked_energy,
    poisson_batch_with_rng,
    rejection_points,
)

__all__ = [
    "BoundResult",
    "bound_tv_poisson",
    "bound_tv_cox",
    "bound_tv_gibbs",
    "bound_w2_halfline",
    "bound_tv_general",
    "bound_w2_timechange",
    "poisson_density",
    "gibbs_density",
    "gibbs_normalization_series",
    "gibbs_count_law_rho1",
    "nested_gradient_mc",
]


def _fn_label(fn) -> str:
    return getattr(fn, "expr", None) or getattr(fn, "__qualname__", type(fn).__name__)


def _digest(op: str, **parts) -> str:
    def enc(v):
        if callable(v):
            return _fn_label(v)
        if isinstance(v, IntensityMeasure):
            return {"label": v.label or _fn_label(v.density), "sup": v.density_sup}
        if isinstance(v, SeedSpec):
            return v.to_dict()
        if isinstance(v, TimeChangeSpec):
            return {"U": _fn_label(v.U), "horizon": v.horizon}
        return v

    payload = json.dumps({"op": op, **{k: enc(v) for k, v in parts.items()}}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class BoundResult:
    """Value of one upper bound together with how it was obtained."""

    value: float
    method: str  # closed_form | quadrature | monte_carlo
    inputs_digest: str
    std_error: float = 0.0
    n_samples: int | None = None
    seed: SeedSpec | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("closed_form", "quadrature", "monte_carlo"):
            raise ValidationError(f"unknown method {self.method!r}")
        if self.value < 0 and not math.isnan(self.value):
            raise ValidationError("bounds are nonnegative")
        if self.method == "monte_carlo" and (self.n_samples is None or self.seed is None):
            raise ValidationError("monte_carlo results must carry n_samples and seed")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed.to_dict() if self.seed else None,
            "inputs_digest": self.inputs_digest,
            "details": self.details,
        }


# --------------------------------------------------------------------------
# closed-form / quadrature bounds
# --------------------------------------------------------------------------


def bound_tv_poisson(p: Callable, sigma: IntensityMeasure) -> BoundResult:
    """Total-variation transport bound between Poisson(sigma) and Poisson(p*sigma):
    the integral of |p - 1| against sigma."""
    lo, hi = sigma.window.bounds()

    def integrand(x):
        return np.abs(eval_points(p, x) - 1.0) * sigma.density_at(x)

    value = integrate(integrand, lo, hi, rel_tol=1e-8)
    return BoundResult(
        value=float(value),
        method="quadrature",
        inputs_digest=_digest("bound_tv_poisson", p=p, sigma=sigma),
    )


def bound_tv_cox(
    base: IntensityMeasure, mixer, n_samples: int, seed: SeedSpec
) -> BoundResult:
    """Cox bound for scalar mixing: E|Xi - 1| times the base total mass."""
    if n_samples < 2:
        raise ValidationError("need at least two samples")
    rng = seed.rng()
    draws = np.asarray(mixer.sample(rng, size=n_samples), float)
    if np.any(draws <= 0):
        raise ValidationError("mixer produced non-positive intensity factors")
    mass = base.total_mass
    est = estimate_from_values(np.abs(draws - 1.0) * mass, seed)
    return BoundResult(
        value=est.mean,
        method="monte_carlo",
        std_error=est.std_error,
        n_samples=n_samples,
        seed=seed,
        inputs_digest=_digest("bound_tv_cox", mixer=repr(mixer), sigma=base, n=n_samples, seed=seed),
    )


def bound_tv_gibbs(phi: Callable, sigma: IntensityMeasure) -> BoundResult:
    """Gibbs bound: twice the double integral of phi(x - y) against sigma x sigma."""
    d = sigma.window.dim
    lo, hi = sigma.window.bounds()
    lo2 = np.concatenate([lo, lo])
    hi2 = np.concatenate([hi, hi])

    def integrand(z):
        x, y = z[..., :d], z[..., d:]
        pv = eval_points(phi, x - y)
        if np.any(pv < 0):
            raise ValidationError("pair potential must be nonnegative")
        return pv * sigma.density_at(x) * sigma.density_at(y)

    value = 2.0 * integrate(integrand, lo2, hi2, rel_tol=1e-8)
    return BoundResult(
        value=float(value),
        method="quadrature",
        inputs_digest=_digest("bound_tv_gibbs", phi=phi, sigma=sigma),
    )


def bound_w2_halfline(tc: TimeChangeSpec) -> BoundResult:
    """Wasserstein bound on the half-line: the L2 norm of U on [0, horizon].

    The tail left out by the finite horizon is estimated by quadrature of U^2
    on the doubled interval [horizon, 2*horizon] and reported in details.
    """

    def u_sq(x):
        t = x[..., 0]
        u = np.asarray(tc.U(t), float)
        return u * u

    main = integrate(u_sq, [0.0], [tc.horizon], rel_tol=1e-8)
    tail = integrate(u_sq, [tc.horizon], [2.0 * tc.horizon], rel_tol=1e-6, abs_tol=1e-12)
    return BoundResult(
        value=math.sqrt(max(main, 0.0)),
        method="quadrature",
        inputs_digest=_digest("bound_w2_halfline", tc=tc),
        details={"truncation_tail_estimate": float(tail)},
    )


def bound_w2_timechange(
    tc: TimeChangeSpec, sigma_marks: IntensityMeasure | None = None
) -> BoundResult:
    """Time-change bound, deterministic intensity perturbation u = U'.

    Evaluates both expressions of the squared bound -- the energy form
    integral of U(t)^2 (1 + U'(t)) dt and the inverse form integral of
    (r - v^{-1}(r))^2 dr -- and requires their agreement to 1e-6 relative
    (they are equal by the change of variables r = v(t)).  With a factorised
    mark intensity the squared bound scales by the mark mass.
    """

    def energy_form(x):
        t = x[..., 0]
        u = np.asarray(tc.U(t), float)
        du = np.asarray(tc.U_prime(t), float)
        return u * u * (1.0 + du)

    def inverse_form(x):
        r = x[..., 0]
        t = tc.v_inverse(r)
        return (r - t) ** 2

    expr_energy = integrate(energy_form, [0.0], [tc.horizon], rel_tol=1e-9)
    expr_inverse = integrate(inverse_form, [0.0], [tc.v_end], rel_tol=1e-9)
    scale = max(abs(expr_energy), abs(expr_inverse))
    if scale > 0 and abs(expr_energy - expr_inverse) > 1e-6 * scale:
        raise InternalConsistencyError(
            f"time-change bound expressions disagree: {expr_energy} vs {expr_inverse}"
        )
    mark_mass = sigma_marks.total_mass if sigma_marks is not None else 1.0
    return BoundResult(
        value=math.sqrt(max(expr_energy, 0.0) * mark_mass),
        method="quadrature",
        inputs_digest=_digest("bound_w2_timechange", tc=tc, marks=mark_mass),
        details={
            "energy_form": float(expr_energy),
            "inverse_form": float(expr_inverse),
            "mark_mass": float(mark_mass),
        },
    )


# --------------------------------------------------------------------------
# general Monte Carlo bound
# --------------------------------------------------------------------------


def nested_gradient_mc(
    F: Callable[[Configuration], float],
    sigma: IntensityMeasure,
    n_outer: int,
    inner_samples: int,
    seed: SeedSpec,
    base_path: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Nested Monte Carlo for E integral |F(w + x) - F(w)| d sigma(x).

    Outer draws w_i are Poisson(sigma); for each, the x-integral is estimated
    as total_mass times the mean of |F(w_i + x) - F(w_i)| over inner draws
    x ~ sigma / sigma(L) from an independent substream.  Returns the per-outer
    estimates and the values F(w_i) (useful for normalisation checks).
    """
    if n_outer < 2 or inner_samples < 1:
        raise ValidationError("need n_outer >= 2 and inner_samples >= 1")
    mass = sigma.total_mass
    f0, f1 = _add_one_point_values(
        F, sigma, n_outer, inner_samples, seed.rng(base_path, 0), seed.rng(base_path, 1)
    )
    if mass <= 0:
        return np.zeros(n_outer), f0
    # cumsum adds left to right, so each row sum is bit-identical to a running sum
    acc = np.cumsum(np.abs(f1 - f0[:, None]), axis=1)[:, -1]
    return mass * acc / inner_samples, f0


_SLAB_ROWS = 4096  # most rows (configurations) in one slab of the add-one-point kernel


def _add_one_point_values(F, sigma, n_outer, inner_samples, config_rng, point_rng):
    """The add-one-point kernel shared by every gradient estimate.

    Draws ``n_outer`` Poisson(sigma) configurations w_i from ``config_rng``
    and, when sigma has mass, ``inner_samples`` points x_ij ~ sigma / sigma(L)
    per configuration from ``point_rng``.  Returns the vector F(w_i) and the
    matrix F(w_i + x_ij); with no mass or no inner samples it has no columns
    and no point is drawn (``point_rng`` may then be None).

    All inner points are checked against the window once, as one array
    (dimension, finiteness, membership: what ``Configuration.add`` checks per
    point).  The draws are then grouped by atom count n, in increasing n.
    Each group's draws w_i go into read-only ``(k, n, d)`` slabs, then its
    rows w_i + x_ij, in draw order and then in j, into ``(k, n + 1, d)``
    slabs (x_ij appended as the last atom), none over ``_SLAB_ROWS`` rows.
    ``core._functional_values`` evaluates each slab: one ``stack`` call, so
    one per atom count for F(w_i) and one for F(w_i + x_ij) unless a group
    is split; or a plain callable called on each draw as given and on each
    row as a configuration.  Each value equals F(w_i), or F(w_i.add(x_ij)),
    bit for bit.
    """
    configs = poisson_batch_with_rng(sigma, n_outer, config_rng)
    window = sigma.window
    if sigma.total_mass <= 0:
        inner_samples = 0  # and no point is drawn: rejection_points returns 0 points at once
    points = _checked_atoms(rejection_points(sigma, n_outer * inner_samples, point_rng), window)
    by_count: dict[int, list[int]] = {}
    for i, w in enumerate(configs):
        by_count.setdefault(w.n, []).append(i)
    f0 = np.empty(n_outer)
    f1 = np.empty(n_outer * inner_samples)  # row-major (n_outer, inner_samples), like points
    for n, group in sorted(by_count.items()):
        atoms = np.stack([configs[i].atoms for i in group])
        atoms.setflags(write=False)
        draws = np.array(group)
        for start in range(0, len(group), _SLAB_ROWS):
            at = group[start : start + _SLAB_ROWS]
            draw_slab = atoms[start : start + len(at)]
            f0[at] = _functional_values(F, draw_slab, window, [configs[i] for i in at])
        rows = draws.size * inner_samples
        for start in range(0, rows, _SLAB_ROWS):
            owner, j = np.divmod(np.arange(start, min(start + _SLAB_ROWS, rows)), inner_samples)
            at = draws[owner] * inner_samples + j  # where x_ij is in points, and its value in f1
            slab = np.empty((at.size, n + 1, window.dim))
            slab[:, :-1] = atoms[owner]
            slab[:, -1] = points[at]
            slab.setflags(write=False)
            f1[at] = _functional_values(F, slab, window)
    return f0, f1.reshape(n_outer, inner_samples)


def bound_tv_general(
    L: Callable[[Configuration], float],
    sigma: IntensityMeasure,
    n_samples: int,
    seed: SeedSpec,
    inner_samples: int = 64,
) -> BoundResult:
    """General total-variation transport bound for a law with density L:
    the expected sigma-integral of the absolute add-one-point difference of L.

    The normalisation E[L] = 1 is verified on the outer samples; a deviation
    beyond four standard errors attaches a warning to the result instead of
    failing, since an unnormalised density is the most likely caller error.
    """
    values, l0 = nested_gradient_mc(L, sigma, n_samples, inner_samples, seed)
    est = estimate_from_values(values, seed)
    norm = estimate_from_values(l0, seed)
    details = {
        "normalization_mean": norm.mean,
        "normalization_std_error": norm.std_error,
        "inner_samples": inner_samples,
    }
    if norm.std_error > 0 and abs(norm.mean - 1.0) > 4.0 * norm.std_error:
        details["normalization_warning"] = (
            f"E[L] = {norm.mean:.6g} +- {norm.std_error:.2g} is not 1 within 4 sigma; "
            "the density may be unnormalised"
        )
    return BoundResult(
        value=est.mean,
        method="monte_carlo",
        std_error=est.std_error,
        n_samples=n_samples,
        seed=seed,
        inputs_digest=_digest(
            "bound_tv_general", L=L, sigma=sigma, n=n_samples, inner=inner_samples, seed=seed
        ),
        details=details,
    )


# --------------------------------------------------------------------------
# density helpers
# --------------------------------------------------------------------------


def poisson_density(p: Callable, sigma: IntensityMeasure) -> Callable[[Configuration], float]:
    """Density of Poisson(p*sigma) with respect to Poisson(sigma):
    exp( sum_atoms log p(x) + integral (1 - p) d sigma ).  E[L] = 1 by construction."""
    lo, hi = sigma.window.bounds()

    def integrand(x):
        return (1.0 - eval_points(p, x)) * sigma.density_at(x)

    const = integrate(integrand, lo, hi, rel_tol=1e-10)

    def stack(atoms: np.ndarray, window) -> np.ndarray:
        k, n, d = atoms.shape
        if n == 0:  # p is never called on no points
            return np.full(k, math.exp(const))
        vals = eval_points(p, atoms.reshape(-1, d)).reshape(k, n)
        if np.any(vals <= 0):
            raise ValidationError("poisson density requires p > 0 at configuration atoms")
        # math.exp: np.exp can differ from it in the last bit, by CPU
        return np.array([math.exp(v) for v in (np.sum(np.log(vals), axis=-1) + const).tolist()])

    return _StackedFunctional(stack, f"poisson_density({_fn_label(p)})")


_COUNT_TERMS = 400  # counts k = 0 .. 399 of the constant-potential count series


def _gibbs_count_weights(c: float, mass: float) -> tuple[list[float], list[float]]:
    """Poisson count pmf(k) and the unnormalised Gibbs count weights
    pmf(k) e^{-c k(k-1)}, for k = 0, 1, ... (at most ``_COUNT_TERMS`` of
    them).  Raises when the Poisson counts beyond the last term carry more
    than 1e-12 of the mass, rather than return a truncated series."""
    if not (c >= 0 and mass >= 0):  # NaN fails too
        raise ValidationError("series needs c >= 0 and mass >= 0")
    pmf, weights = [], []
    log_pmf = -mass
    for k in range(_COUNT_TERMS):
        pmf.append(math.exp(log_pmf))
        energy = c * k * (k - 1) if k > 1 else 0.0  # no pairs: zero energy, also for c = inf
        weights.append(math.exp(log_pmf - energy))
        log_pmf += math.log(mass) - math.log(k + 1) if mass > 0 else -math.inf
        if mass == 0:
            break
    if not 1.0 - sum(pmf) <= 1e-12:
        raise ValidationError(f"mass {mass} is too large for the {_COUNT_TERMS}-term count series")
    return pmf, weights


def gibbs_normalization_series(c: float, mass: float) -> float:
    """Exact acceptance probability E exp(-V) for a constant potential:
    the Poisson series over counts with V(n) = c n(n-1), summed over the
    first 400 counts.  Raises :class:`ValidationError` when ``mass`` is so
    large that the counts beyond them carry more than 1e-12 of the mass."""
    return sum(_gibbs_count_weights(c, mass)[1])


def gibbs_count_law_rho1(c: float, mass: float) -> float:
    """Exact W_rho1 between Poisson(sigma) and the Gibbs law of a constant
    potential ``c``, for an intensity of total mass ``mass``.

    V depends on the atom count alone, so given the count both laws place
    i.i.d. atoms from sigma/mass.  The count is 1-Lipschitz for rho1 and
    nesting the smaller configuration in the larger attains |N - M|, so the
    distance is the W1 distance of the two count laws, sum_k |F_P(k) - F_G(k)|.
    """
    pmf, weights = _gibbs_count_weights(c, mass)
    poisson = np.cumsum(pmf)
    gibbs = np.cumsum(np.array(weights) / sum(weights))
    return float(np.abs(poisson - gibbs).sum())


def gibbs_density(
    phi: Callable,
    sigma: IntensityMeasure,
    normalization: float,
) -> Callable[[Configuration], float]:
    """Normalised Gibbs density exp(-V)/normalization with respect to Poisson(sigma).

    ``normalization`` is E exp(-V) under Poisson(sigma); for a constant
    potential phi it is :func:`gibbs_normalization_series`.
    """
    if not normalization > 0:
        raise ValidationError("normalization must be positive")

    def stack(atoms: np.ndarray, window) -> np.ndarray:
        energies = _stacked_energy(phi, atoms).tolist()
        return np.array([math.exp(-v) / normalization for v in energies])

    return _StackedFunctional(stack, f"gibbs_density({_fn_label(phi)},z={normalization!r})")
