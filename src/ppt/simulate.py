"""Samplers: Poisson, Cox and Gibbs processes, plus the two explicit
couplings (independent-superposition for the total-variation distance and
the deterministic time change for the Wasserstein distance on the half-line).

All samplers are pure given their :class:`~ppt.core.SeedSpec`; batch variants
draw from a single derived stream and are bit-reproducible for a fixed batch
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import metrics
from .core import (
    Configuration,
    Estimate,
    IntensityMeasure,
    SeedSpec,
    Window,
    _checked_atoms,
    estimate_from_values,
)
from .errors import InternalConsistencyError, SamplerHardnessError, ValidationError
from .quadrature import eval_points, integrate

__all__ = [
    "CoupledPair",
    "TimeChangeSpec",
    "GammaMixer",
    "LognormalMixer",
    "TwoPointMixer",
    "ConstantMixer",
    "rejection_points",
    "sample_poisson",
    "sample_poisson_batch",
    "poisson_batch_with_rng",
    "sample_cox",
    "interaction_energy",
    "sample_gibbs",
    "sample_gibbs_coupled",
    "SuperpositionCoupling",
    "sample_coupled_superposition",
    "TimeChangeCoupling",
    "sample_coupled_timechange",
]


@dataclass(frozen=True, eq=False)
class CoupledPair:
    """Jointly sampled pair of configurations realising an explicit coupling.

    ``cost_hint`` is the realised transport cost of the construction, a valid
    upper bound on the configuration distance of the pair.
    """

    left: Configuration
    right: Configuration
    cost_hint: float | None = None

    def __post_init__(self):
        if self.left.window != self.right.window:
            raise ValidationError("coupled configurations must share a window")


# --------------------------------------------------------------------------
# Poisson and Cox
# --------------------------------------------------------------------------


def rejection_points(sigma: IntensityMeasure, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. points from sigma/sigma(L) by rejection.

    Proposals are uniform on the window, accepted with probability
    density/density_sup; an observed density above the envelope raises.
    """
    if count == 0:
        return np.empty((0, sigma.window.dim))
    lo, hi = sigma.window.bounds()
    d = sigma.window.dim
    mass = sigma.total_mass
    if mass <= 0:
        raise ValidationError("cannot draw points from a measure with zero total mass")
    accept_rate = mass / (sigma.density_sup * sigma.window.volume)
    out = np.empty((count, d))
    have = 0
    empty_rounds = 0
    while have < count:
        todo = count - have
        batch = int(todo / max(accept_rate, 1e-3) * 1.2) + 16
        pts = rng.uniform(lo, hi, size=(batch, d))
        thresholds = rng.uniform(0.0, sigma.density_sup, size=batch)
        vals = sigma.density_at(pts)
        accepted = pts[thresholds < vals]
        take = min(todo, accepted.shape[0])
        out[have : have + take] = accepted[:take]
        have += take
        empty_rounds = empty_rounds + 1 if take == 0 else 0
        if empty_rounds > 100:
            raise SamplerHardnessError(
                "rejection sampler made no progress; the declared total mass is "
                "inconsistent with the density",
                diagnostics={"total_mass": mass, "density_sup": sigma.density_sup},
            )
    return out


def _poisson_atoms(sigma: IntensityMeasure, rng: np.random.Generator) -> np.ndarray:
    n = int(rng.poisson(sigma.total_mass))
    if n == 0:
        return np.empty((0, sigma.window.dim))
    return rejection_points(sigma, n, rng)


def sample_poisson(sigma: IntensityMeasure, seed: SeedSpec) -> Configuration:
    """One draw of the Poisson process with intensity ``sigma``.

    The count is Poisson(total mass); given the count, atoms are i.i.d. from
    the normalised intensity via rejection against the constant envelope.
    """
    return Configuration(_poisson_atoms(sigma, seed.rng()), sigma.window)


def poisson_batch_with_rng(
    sigma: IntensityMeasure, n: int, rng: np.random.Generator
) -> list[Configuration]:
    """``n`` independent Poisson draws from an explicit generator (vectorised).

    The batch's atoms are checked against the window once, as one array;
    each configuration is a row slice of it.
    """
    if n < 1:
        raise ValidationError("batch size must be positive")
    mass = sigma.total_mass
    window = sigma.window
    counts = rng.poisson(mass, size=n) if mass > 0 else np.zeros(n, dtype=int)
    total = int(counts.sum())
    pts = rejection_points(sigma, total, rng) if total else np.empty((0, window.dim))
    atoms = _checked_atoms(pts, window)
    offsets = np.concatenate([[0], np.cumsum(counts)]).tolist()
    return [Configuration._trusted(atoms[lo:hi], window) for lo, hi in zip(offsets, offsets[1:])]


def sample_poisson_batch(sigma: IntensityMeasure, n: int, seed: SeedSpec) -> list[Configuration]:
    """``n`` independent Poisson draws from one derived stream (vectorised)."""
    return poisson_batch_with_rng(sigma, n, seed.rng())


@dataclass(frozen=True)
class GammaMixer:
    shape: float
    scale: float = 1.0

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(self.shape, self.scale, size=size)

    def mean(self) -> float:
        return self.shape * self.scale


@dataclass(frozen=True)
class LognormalMixer:
    mu: float
    sigma_log: float

    def sample(self, rng: np.random.Generator, size=None):
        return rng.lognormal(self.mu, self.sigma_log, size=size)

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma_log**2)


@dataclass(frozen=True)
class TwoPointMixer:
    lo: float
    hi: float
    p_lo: float = 0.5

    def __post_init__(self):
        if not 0 <= self.p_lo <= 1:
            raise ValidationError("p_lo must be a probability")

    def sample(self, rng: np.random.Generator, size=None):
        u = rng.uniform(size=size)
        return np.where(u < self.p_lo, self.lo, self.hi) if size else (
            self.lo if u < self.p_lo else self.hi
        )

    def mean(self) -> float:
        return self.p_lo * self.lo + (1 - self.p_lo) * self.hi


@dataclass(frozen=True)
class ConstantMixer:
    value: float

    def sample(self, rng: np.random.Generator, size=None):
        return np.full(size, self.value) if size else self.value

    def mean(self) -> float:
        return self.value


def sample_cox(base: IntensityMeasure, mixer, seed: SeedSpec) -> Configuration:
    """Cox draw: random scalar Xi from the mixer, then Poisson(Xi * base)."""
    rng = seed.rng()
    xi = float(mixer.sample(rng))
    if xi <= 0:
        raise ValidationError(f"mixer produced a non-positive intensity factor {xi}")
    return Configuration(_poisson_atoms(base.scaled(xi), rng), base.window)


# --------------------------------------------------------------------------
# Gibbs by exact rejection
# --------------------------------------------------------------------------


def interaction_energy(
    phi: Callable[[np.ndarray], float],
    config: Configuration,
    include_diagonal: bool = True,
) -> float:
    """Pairwise interaction energy: sum of phi(x - y) over ordered atom pairs.

    The diagonal contributes n * phi(0) by default, matching an integral of
    phi against the full product measure of the configuration with itself;
    many spatial-statistics conventions drop it, hence the flag.
    """
    return float(_stacked_energy(phi, config.atoms[None], include_diagonal)[0])


def _stacked_energy(phi, atoms: np.ndarray, include_diagonal: bool) -> np.ndarray:
    """:func:`interaction_energy` of each row of a ``(k, n, d)`` atom stack.

    One ``phi`` call, on an ``(m, d)`` array as for a single configuration,
    covers the pairs of every row.  Each row's energy is bit-identical to a
    running sum over its pairs (i < j in row-major order), plus ``n * phi(0)``
    when the diagonal is included.  Rows with no atoms have energy 0.0.
    """
    k, n, dim = atoms.shape
    total = np.zeros(k)
    if n >= 2:
        i, j = np.triu_indices(n, 1)  # pairs i < j in row-major order
        diffs = (atoms[:, i] - atoms[:, j]).reshape(-1, dim)
        pair_terms = 2.0 * eval_points(phi, diffs).reshape(k, i.size)
        # cumsum adds left to right along the pair axis
        total = np.cumsum(pair_terms, axis=1)[:, -1]
    if include_diagonal and n:
        total = total + n * float(eval_points(phi, np.zeros(dim)))
    return total


def _gibbs_rejection(
    phi,
    sigma: IntensityMeasure,
    rng: np.random.Generator,
    include_diagonal: bool,
    acceptance_floor: float,
    collect_proposals: list | None = None,
) -> tuple[Configuration, int]:
    max_proposals = max(int(math.ceil(2.0 / acceptance_floor)), 100)
    energies = []
    for k in range(1, max_proposals + 1):
        proposal = Configuration(_poisson_atoms(sigma, rng), sigma.window)
        if collect_proposals is not None:
            collect_proposals.append(proposal)
        v = interaction_energy(phi, proposal, include_diagonal)
        if v < 0:
            raise ValidationError("pair potential must be nonnegative")
        energies.append(v)
        if rng.uniform() < math.exp(-v):
            return proposal, k
    raise SamplerHardnessError(
        f"no acceptance after {max_proposals} proposals "
        f"(acceptance floor {acceptance_floor})",
        diagnostics={
            "proposals": max_proposals,
            "mean_energy": float(np.mean(energies)),
            "min_energy": float(np.min(energies)),
            "total_mass": sigma.total_mass,
        },
    )


def sample_gibbs(
    phi: Callable[[np.ndarray], float],
    sigma: IntensityMeasure,
    seed: SeedSpec,
    include_diagonal: bool = True,
    acceptance_floor: float = 1e-4,
) -> tuple[Configuration, Estimate]:
    """Exact draw from the Gibbs law with density proportional to exp(-V).

    V is the pairwise energy of ``phi`` (see :func:`interaction_energy`).
    Because phi >= 0 gives exp(-V) <= 1, plain rejection from Poisson
    proposals is exact.  Returns the accepted configuration together with a
    one-run acceptance-rate estimate (1/number of proposals, geometric MLE).
    """
    rng = seed.rng()
    config, k = _gibbs_rejection(phi, sigma, rng, include_diagonal, acceptance_floor)
    p_hat = 1.0 / k
    se = p_hat * math.sqrt(max(1.0 - p_hat, 0.0)) if k > 1 else 0.0
    return config, Estimate(mean=p_hat, std_error=se, n_samples=k, seed=seed)


def sample_gibbs_coupled(
    phi: Callable[[np.ndarray], float],
    sigma: IntensityMeasure,
    n: int,
    seed: SeedSpec,
    include_diagonal: bool = True,
    acceptance_floor: float = 1e-4,
) -> tuple[list[Configuration], list[Configuration], Estimate]:
    """Coupled Poisson and Gibbs sample lists from one rejection stream.

    Runs the exact rejection chain until ``n`` acceptances; returns the first
    ``n`` proposals (i.i.d. Poisson), the ``n`` accepted configurations
    (i.i.d. Gibbs) and the pooled acceptance-rate estimate.  Accepted
    proposals appear identically in both lists, which makes the pair of lists
    an explicit coupling with many zero-distance matches -- the intended
    input for tight empirical transport estimates.
    """
    if n < 1:
        raise ValidationError("need a positive number of samples")
    rng = seed.rng()
    proposals: list[Configuration] = []
    accepted: list[Configuration] = []
    while len(accepted) < n:
        config, _ = _gibbs_rejection(
            phi, sigma, rng, include_diagonal, acceptance_floor, collect_proposals=proposals
        )
        accepted.append(config)
    total_props = len(proposals)  # always >= n: every acceptance consumed a proposal
    p_hat = n / total_props
    acc = Estimate(
        mean=p_hat,
        std_error=math.sqrt(max(p_hat * (1 - p_hat), 0.0) / total_props),
        n_samples=total_props,
        seed=seed,
    )
    return proposals[:n], accepted, acc


# --------------------------------------------------------------------------
# superposition coupling for the total-variation distance
# --------------------------------------------------------------------------


class SuperpositionCoupling:
    """Common-part-plus-extras coupling of Poisson(sigma) and Poisson(p*sigma).

    Three independent Poisson layers are drawn: the shared part with density
    min(p, 1) against sigma, the left extras with density (1-p)+ and the
    right extras with density (p-1)+.  left = shared + left extras has
    intensity sigma; right = shared + right extras has intensity p*sigma.
    The realised cost is the number of extra atoms, an unbiased estimate of
    the integral of |p - 1| against sigma.

    ``p_sup`` bounds p on the window (it sets the right extras' rejection
    envelope).  It defaults to ``p.sup_on(window)``, which parsed density
    expressions carry; a p without that method needs an explicit ``p_sup``.
    """

    def __init__(self, sigma: IntensityMeasure, p: Callable[[np.ndarray], float], p_sup: float | None = None):
        self.sigma = sigma
        self.p = p
        if p_sup is None:
            if not hasattr(p, "sup_on"):
                raise ValidationError(
                    "SuperpositionCoupling needs p_sup, or a p with a sup_on(window) method"
                )
            p_sup = p.sup_on(sigma.window)
        if p_sup < 0:
            raise ValidationError("p_sup must be nonnegative")
        self.p_sup = float(p_sup)
        window = sigma.window

        def d_shared(x, _p=p, _s=sigma):
            return np.minimum(eval_points(_p, x), 1.0) * eval_points(_s.density, x)

        def d_left(x, _p=p, _s=sigma):
            return np.maximum(1.0 - eval_points(_p, x), 0.0) * eval_points(_s.density, x)

        def d_right(x, _p=p, _s=sigma):
            return np.maximum(eval_points(_p, x) - 1.0, 0.0) * eval_points(_s.density, x)

        lo, hi = window.bounds()
        mass_shared = float(integrate(d_shared, lo, hi))
        mass_right = float(integrate(d_right, lo, hi))
        mass_left = sigma.total_mass - mass_shared
        self.shared = IntensityMeasure(
            d_shared, window, sigma.density_sup, label="shared", total_mass_hint=mass_shared
        )
        self.left_extra = IntensityMeasure(
            d_left, window, sigma.density_sup, label="left-extra", total_mass_hint=max(mass_left, 0.0)
        )
        right_sup = max(self.p_sup - 1.0, 0.0) * sigma.density_sup + 1e-12
        self.right_extra = IntensityMeasure(
            d_right, window, right_sup, label="right-extra", total_mass_hint=mass_right
        )

    @property
    def mean_cost_exact(self) -> float:
        """integral of |p - 1| d sigma, the coupling's expected cost."""
        return self.left_extra.total_mass + self.right_extra.total_mass

    def sample(self, seed: SeedSpec) -> CoupledPair:
        rng = seed.rng()
        shared = _poisson_atoms(self.shared, rng)
        extra_l = (
            _poisson_atoms(self.left_extra, rng)
            if self.left_extra.total_mass > 0
            else np.empty((0, self.sigma.window.dim))
        )
        extra_r = (
            _poisson_atoms(self.right_extra, rng)
            if self.right_extra.total_mass > 0
            else np.empty((0, self.sigma.window.dim))
        )
        left = Configuration(np.vstack([shared, extra_l]), self.sigma.window)
        right = Configuration(np.vstack([shared, extra_r]), self.sigma.window)
        cost = float(extra_l.shape[0] + extra_r.shape[0])
        realised = metrics.rho1(left, right)
        if realised != cost:  # shared atoms cancel exactly; extras never collide a.s.
            raise InternalConsistencyError(
                f"superposition cost hint {cost} disagrees with rho1 {realised}"
            )
        return CoupledPair(left=left, right=right, cost_hint=cost)

    def sample_batch(self, n: int, seed: SeedSpec) -> list[CoupledPair]:
        return [self.sample(SeedSpec(seed.seed, seed.stream_id + i)) for i in range(n)]

    def estimate_mean_cost(self, n_samples: int, seed: SeedSpec) -> Estimate:
        """Monte Carlo mean of the coupling cost (counts only, vectorised)."""
        if n_samples < 2:
            raise ValidationError("need at least two samples")
        rng = seed.rng()
        costs = rng.poisson(self.left_extra.total_mass, size=n_samples) + rng.poisson(
            self.right_extra.total_mass, size=n_samples
        )
        return estimate_from_values(costs.astype(float), seed)


def sample_coupled_superposition(
    sigma: IntensityMeasure,
    p: Callable[[np.ndarray], float],
    seed: SeedSpec,
    p_sup: float | None = None,
) -> CoupledPair:
    """One draw of the superposition coupling (see :class:`SuperpositionCoupling`)."""
    return SuperpositionCoupling(sigma, p, p_sup=p_sup).sample(seed)


# --------------------------------------------------------------------------
# time-change coupling for the Wasserstein distance on the half-line
# --------------------------------------------------------------------------

_TABLE_LEVELS = 16  # bisection levels of v_inverse answered by its table
_BLOCK = 8192  # points of r per v_inverse block


@dataclass(frozen=True, eq=False)
class TimeChangeSpec:
    """Deterministic time change on [0, horizon].

    ``U`` is continuously differentiable with U(0) = 0 and derivative
    ``U_prime`` valued in (-1, +inf); both are validated on a dense grid.
    The time change is v(t) = t + U(t), strictly increasing.
    """

    U: Callable[[np.ndarray], np.ndarray]
    U_prime: Callable[[np.ndarray], np.ndarray]
    horizon: float
    grid_size: int = 4097

    def __post_init__(self):
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValidationError("horizon must be a positive finite real")
        grid = np.linspace(0.0, self.horizon, self.grid_size)
        u0 = float(np.asarray(self.U(np.array([0.0])), float).reshape(-1)[0])
        if abs(u0) > 1e-9:
            raise ValidationError(f"U(0) must vanish, got {u0}")
        du = np.asarray(self.U_prime(grid), float)
        if np.any(~np.isfinite(du)) or np.any(du <= -1.0):
            raise ValidationError("U' must be finite and valued in (-1, +inf) on [0, horizon]")
        v = grid + np.asarray(self.U(grid), float)
        if np.any(np.diff(v) <= 0):
            raise ValidationError("time change v(t) = t + U(t) must be strictly increasing")

    def v(self, t):
        t = np.asarray(t, float)
        return t + np.asarray(self.U(t), float)

    @property
    def v_end(self) -> float:
        return float(self.v(np.array([self.horizon]))[0])

    @cached_property
    def _bisection_table(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The first ``_TABLE_LEVELS`` levels of :meth:`v_inverse`'s bisection.

        Returns ``(ends, vt)``: ``ends`` holds 0, the 2^K - 1 midpoints of
        those levels in increasing order and the horizon, each built by the
        bisection's own ``0.5 * (lo + hi)`` from its bracket, so they are the
        floats bisection visits; ``vt`` is v at the midpoints.  None when
        ``vt`` is not nondecreasing, because a bracket search on it would not
        repeat bisection's decisions.
        """
        ends = np.array([0.0, self.horizon])
        for _ in range(_TABLE_LEVELS):
            mids = 0.5 * (ends[:-1] + ends[1:])
            out = np.empty(2 * ends.size - 1)
            out[0::2] = ends
            out[1::2] = mids
            ends = out
        vt = self.v(ends[1:-1])
        if not np.all(vt[1:] >= vt[:-1]):
            return None
        return ends, vt

    def v_inverse(self, r, tol: float = 1e-12):
        """Invert v to absolute tolerance ``tol`` (vectorised).

        Bisection brackets the root, then two Newton steps polish it to the
        bracket width squared (v' = 1 + U' > 0 keeps Newton safe), so the
        identity time change inverts exactly.

        The first 16 bisection levels are looked up instead of run: the spec
        tabulates v once at those levels' midpoints, and because the table is
        nondecreasing, ``searchsorted`` on it gives the bracket that the 16
        decisions ``v(mid) < r`` reach; the remaining levels and the Newton
        steps run as before, so the result is bit-identical to plain
        bisection.  Within a block the keys are sorted first (``argsort``),
        looked up, bisected and polished in that order, and each result is
        written back to its key's position: consecutive lookups then touch
        neighbouring table entries instead of missing the cache.  Plain
        bisection runs instead, in the given order, when v is not
        nondecreasing on the table, when ``tol`` asks for fewer than 16
        levels, and for a block of ``r`` holding NaN (NaN sorts last, but
        bisection sends it left).  ``r`` is processed in fixed blocks so
        that the temporaries stay small; every operation is elementwise, so
        neither the blocks nor the sorting change any value.
        """
        r = np.asarray(r, float)
        flat = r.reshape(-1)
        out = np.empty(flat.shape)
        bracket = max(math.sqrt(tol), 1e-8)
        iters = int(math.ceil(math.log2(max(self.horizon / bracket, 2.0)))) + 1
        table = self._bisection_table if iters >= _TABLE_LEVELS else None
        for start in range(0, flat.size, _BLOCK):
            rb = flat[start : start + _BLOCK]
            idx = slice(start, start + rb.size)
            if table is not None and not np.isnan(rb).any():
                ends, vt = table
                idx = start + np.argsort(rb)
                rb = flat[idx]  # sorted keys: the table lookups walk it in order
                s = np.searchsorted(vt, rb, side="left")
                lo, hi, levels = ends[s], ends[s + 1], iters - _TABLE_LEVELS
            else:
                lo, hi, levels = np.zeros_like(rb), np.full_like(rb, self.horizon), iters
            for _ in range(levels):
                mid = 0.5 * (lo + hi)
                below = self.v(mid) < rb
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            t = 0.5 * (lo + hi)
            for _ in range(2):
                slope = 1.0 + np.asarray(self.U_prime(t), float)
                t = np.clip(t - (self.v(t) - rb) / slope, 0.0, self.horizon)
            out[idx] = t
        return out.reshape(r.shape)[()]  # a numpy scalar for scalar r, as before


class TimeChangeCoupling:
    """Identity pairing of a homogeneous Poisson process with its time change.

    Standard Poisson atoms r_i on [0, v(horizon)] are pulled back through
    v^{-1}; the pulled-back atoms follow the inhomogeneous law with intensity
    (1 + U') dt on [0, horizon].  Pairing atom-for-atom realises the cost
    sqrt(sum (t_i - v(t_i))^2) = sqrt(sum U(t_i)^2), an upper bound on the
    Wasserstein distance of the pair (and equal to it in this monotone 1-d
    construction).
    """

    def __init__(self, tc: TimeChangeSpec):
        self.tc = tc
        self.window = Window([0.0], [tc.v_end])

    def sample(self, seed: SeedSpec) -> CoupledPair:
        rng = seed.rng()
        n = int(rng.poisson(self.tc.v_end))
        r = np.sort(rng.uniform(0.0, self.tc.v_end, size=n))
        t = self.tc.v_inverse(r)
        left = Configuration(t[:, None], self.window)
        right = Configuration(r[:, None], self.window)
        cost = float(np.sqrt(np.sum((t - r) ** 2)))
        w2 = metrics.rho2(left, right)
        if not cost >= w2 - 1e-9:
            raise InternalConsistencyError("time-change cost hint fell below the realised distance")
        return CoupledPair(left=left, right=right, cost_hint=cost)

    def estimate_mean_cost(
        self, n_samples: int, seed: SeedSpec, chunk_atoms: int = 1_000_000
    ) -> Estimate:
        """Monte Carlo mean of the per-draw coupling cost, vectorised across draws."""
        if n_samples < 2:
            raise ValidationError("need at least two samples")
        rng = seed.rng()
        v_end = self.tc.v_end
        counts = rng.poisson(v_end, size=n_samples)
        costs = np.empty(n_samples)
        done = 0
        while done < n_samples:
            take = int(
                max(1, min(n_samples - done, chunk_atoms // max(int(v_end) + 1, 1)))
            )
            cts = counts[done : done + take]
            total = int(cts.sum())
            r = rng.uniform(0.0, v_end, size=total)
            t = self.tc.v_inverse(r)
            sq = (t - r) ** 2
            offsets = np.concatenate([[0], np.cumsum(cts)])[:-1]
            sums = np.add.reduceat(np.concatenate([sq, [0.0]]), offsets)
            sums[cts == 0] = 0.0
            costs[done : done + take] = np.sqrt(sums)
            done += take
        return estimate_from_values(costs, seed)


def sample_coupled_timechange(tc: TimeChangeSpec, seed: SeedSpec) -> CoupledPair:
    """One draw of the time-change coupling (see :class:`TimeChangeCoupling`)."""
    return TimeChangeCoupling(tc).sample(seed)
