"""Samplers: Poisson, Cox and Gibbs processes, plus the two explicit
couplings (independent-superposition for the total-variation distance and
the deterministic time change for the Wasserstein distance on the half-line).

All samplers are pure given their :class:`~ppt.core.SeedSpec`, or a generator
derived from one.  :func:`poisson_batch_with_rng` draws a whole batch from one
generator, so it is bit-reproducible for a fixed batch size;
:func:`poisson_counts` is such a batch's count draw alone, the same integers
without the atoms.
:meth:`SuperpositionCoupling.sample_batch` gives pair i its own stream,
``stream_id + i``, so each pair is the same whatever the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, NamedTuple

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
    "poisson_batch_with_rng",
    "poisson_counts",
    "sample_cox",
    "interaction_energy",
    "sample_gibbs",
    "sample_gibbs_coupled",
    "SuperpositionCoupling",
    "TimeChangeCoupling",
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
    This is the one-stream case of :func:`_rejection_rounds`.
    """
    return _rejection_rounds(sigma, [count], [rng])


def _rejection_rounds(
    sigma: IntensityMeasure, counts: list[int], rngs: list[np.random.Generator]
) -> np.ndarray:
    """Stream k draws ``counts[k]`` points from sigma/sigma(L) with ``rngs[k]``.

    Returns every stream's points in stream order, as one ``(sum(counts), d)``
    array.  Each round, every stream still short of its count draws its
    proposals, then its thresholds, from its own generator, sized by what it
    still needs; one ``density_at`` call covers all streams' proposals, and
    each stream keeps its first accepted points.  A stream's points therefore
    do not depend on the other streams: the density is evaluated pointwise,
    so they equal a run of this loop on that stream alone.  A stream that
    accepts nothing in more than 100 rounds in a row raises
    :class:`SamplerHardnessError`.
    """
    todo = [int(c) for c in counts]
    if min(todo) < 0:
        raise ValidationError("point counts must be nonnegative")
    active = [k for k, c in enumerate(todo) if c > 0]
    d = sigma.window.dim
    if not active:
        return np.empty((0, d))
    lo, hi = sigma.window.bounds()
    mass = sigma.total_mass
    if not math.isfinite(mass):
        raise ValidationError(f"cannot draw points from a measure with total mass {mass}")
    if mass <= 0:
        raise ValidationError("cannot draw points from a measure with zero total mass")
    with np.errstate(over="ignore"):
        width = hi - lo
    if not np.all(np.isfinite(width)):
        raise ValidationError("cannot draw points: the window is wider than the largest double")
    sup = sigma.density_sup
    rate = max(mass / (sup * sigma.window.volume), 1e-3)
    chunks: list[list[np.ndarray]] = [[] for _ in todo]
    empty_rounds = [0] * len(todo)
    while active:
        sizes = [int(todo[k] / rate * 1.2) + 16 for k in active]
        # each generator draws its proposals, then its thresholds; lo + width * random()
        # is Generator.uniform(lo, hi)'s own formula, without its array-bounds checks
        proposals = _joined([lo + width * rngs[k].random((m, d)) for k, m in zip(active, sizes)])
        thresholds = _joined([rngs[k].uniform(0.0, sup, size=m) for k, m in zip(active, sizes)])
        keep = thresholds < sigma.density_at(proposals)
        accepted = proposals[keep]
        short, start, first = [], 0, 0
        for k, m in zip(active, sizes):
            got = int(np.count_nonzero(keep[start : start + m]))
            start += m
            take = min(todo[k], got)
            chunks[k].append(accepted[first : first + take])
            first += got
            todo[k] -= take
            if todo[k]:
                short.append(k)
                empty_rounds[k] = empty_rounds[k] + 1 if take == 0 else 0
                if empty_rounds[k] > 100:
                    raise SamplerHardnessError(
                        "rejection sampler made no progress; the declared total mass is "
                        "inconsistent with the density",
                        diagnostics={"total_mass": mass, "density_sup": sup},
                    )
        active = short
    del proposals, thresholds, keep  # free before the copy below, which can then reuse them
    return np.concatenate([c for stream in chunks for c in stream])


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate(parts)``, without a copy for a single part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# the largest mean Generator.poisson accepts (numpy's POISSON_LAM_MAX)
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


def _count_mean(sigma: IntensityMeasure) -> float:
    """``sigma.total_mass``, checked to be a Poisson mean that ``Generator.poisson`` accepts."""
    mass = sigma.total_mass
    if not 0 <= mass <= _POISSON_LAM_MAX:  # also catches NaN and inf
        raise ValidationError(
            f"total mass {mass} is not a Poisson mean in [0, {_POISSON_LAM_MAX:.6g}]"
        )
    return mass


def _poisson_atoms(sigma: IntensityMeasure, rng: np.random.Generator) -> np.ndarray:
    n = int(rng.poisson(_count_mean(sigma)))
    if n == 0:
        return np.empty((0, sigma.window.dim))
    return rejection_points(sigma, n, rng)


def sample_poisson(sigma: IntensityMeasure, seed: SeedSpec) -> Configuration:
    """One draw of the Poisson process with intensity ``sigma``.

    The count is Poisson(total mass); given the count, atoms are i.i.d. from
    the normalised intensity via rejection against the constant envelope.
    """
    return Configuration(_poisson_atoms(sigma, seed.rng()), sigma.window)


def poisson_counts(sigma: IntensityMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    """The atom counts of ``n`` independent Poisson draws: Poisson(sigma(L)) each.

    This is the count draw that :func:`poisson_batch_with_rng` makes before
    any atom, so on twin generators the counts equal its configurations'
    ``n``.  A statistic of the count alone, such as the count witness
    F(omega) = omega(L), needs only these.
    """
    if n < 1:
        raise ValidationError("batch size must be positive")
    mass = _count_mean(sigma)
    return rng.poisson(mass, size=n) if mass > 0 else np.zeros(n, dtype=int)


def poisson_batch_with_rng(
    sigma: IntensityMeasure, n: int, rng: np.random.Generator
) -> list[Configuration]:
    """``n`` independent Poisson draws from an explicit generator (vectorised).

    The counts come from :func:`poisson_counts`, then every draw's atoms from
    the same generator.  The batch's atoms are checked against the window
    once, as one array; each configuration is a row slice of it.
    """
    counts = poisson_counts(sigma, n, rng)
    window = sigma.window
    total = int(counts.sum())
    pts = rejection_points(sigma, total, rng) if total else np.empty((0, window.dim))
    atoms = _checked_atoms(pts, window)
    offsets = np.concatenate([[0], np.cumsum(counts)]).tolist()
    return [Configuration._trusted(atoms[lo:hi], window) for lo, hi in zip(offsets, offsets[1:])]


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


def interaction_energy(phi: Callable[[np.ndarray], float], config: Configuration) -> float:
    """Pairwise interaction energy V = sum over i != j of phi(x_i - x_j).

    The sum runs over ordered pairs of distinct atoms, so the diagonal
    i == j contributes nothing.  This is the energy that
    :func:`ppt.bounds.bound_tv_gibbs` linearises.
    """
    return float(_stacked_energy(phi, config.atoms[None])[0])


def _stacked_energy(phi, atoms: np.ndarray) -> np.ndarray:
    """:func:`interaction_energy` of each row of a ``(k, n, d)`` atom stack.

    One ``phi`` call, on an ``(m, d)`` array as for a single configuration,
    covers the pairs of every row.  Each row's energy is bit-identical to a
    running sum over its pairs (i < j in row-major order).  Rows with fewer
    than two atoms have energy 0.0.
    """
    k, n, dim = atoms.shape
    if n < 2:
        return np.zeros(k)
    i, j = np.triu_indices(n, 1)  # pairs i < j in row-major order
    diffs = (atoms[:, i] - atoms[:, j]).reshape(-1, dim)
    pair_terms = 2.0 * eval_points(phi, diffs).reshape(k, i.size)
    # cumsum adds left to right along the pair axis
    return np.cumsum(pair_terms, axis=1)[:, -1]


def _gibbs_rejection(
    phi,
    sigma: IntensityMeasure,
    rng: np.random.Generator,
    acceptance_floor: float,
    collect_proposals: list | None = None,
) -> tuple[Configuration, int]:
    max_proposals = max(int(math.ceil(2.0 / acceptance_floor)), 100)
    energies = []
    for k in range(1, max_proposals + 1):
        proposal = Configuration(_poisson_atoms(sigma, rng), sigma.window)
        if collect_proposals is not None:
            collect_proposals.append(proposal)
        v = interaction_energy(phi, proposal)
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
    acceptance_floor: float = 1e-4,
) -> tuple[Configuration, Estimate]:
    """Exact draw from the Gibbs law with density proportional to exp(-V).

    V is the pairwise energy sum over i != j of phi(x_i - x_j), with no
    diagonal term (see :func:`interaction_energy`).
    Because phi >= 0 gives exp(-V) <= 1, plain rejection from Poisson
    proposals is exact.  Returns the accepted configuration together with a
    one-run acceptance-rate estimate (1/number of proposals, geometric MLE).
    """
    rng = seed.rng()
    config, k = _gibbs_rejection(phi, sigma, rng, acceptance_floor)
    p_hat = 1.0 / k
    se = p_hat * math.sqrt(max(1.0 - p_hat, 0.0)) if k > 1 else 0.0
    return config, Estimate(mean=p_hat, std_error=se, n_samples=k, seed=seed)


def sample_gibbs_coupled(
    phi: Callable[[np.ndarray], float],
    sigma: IntensityMeasure,
    n: int,
    seed: SeedSpec,
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
        config, _ = _gibbs_rejection(phi, sigma, rng, acceptance_floor, collect_proposals=proposals)
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
        """One coupled pair, drawn from ``seed``'s stream."""
        return self.sample_batch(1, seed)[0]

    def sample_batch(self, n: int, seed: SeedSpec) -> list[CoupledPair]:
        """``n`` independent coupled pairs; pair i is drawn from its own stream.

        Pair i uses ``seed.child(i).rng()`` alone, so it is the same pair
        whatever ``n`` is, and equals ``sample(seed.child(i))``.  Each stream
        draws, in this order, the shared layer's count and points, then the
        left extras' and the right extras' (a layer with zero mass draws the
        count 0, which consumes nothing from the stream).  The layers are
        drawn for all pairs at once by :func:`_rejection_rounds`; every atom
        is checked against the window in one array, and each configuration
        is a row slice of it.  Each pair's cost hint, its number of extra
        atoms, is checked against ``metrics.rho1``.
        """
        if n < 1:
            raise ValidationError("batch size must be positive")
        shared, lefts, rights = self._layer_points(n, seed)
        window = self.sigma.window
        # pair i's rows: its left atoms (shared, left extras), then its right ones
        rows = [x for s, l, r in zip(shared, lefts, rights) for x in (s, l, s, r)]
        atoms = _checked_atoms(np.concatenate(rows), window)
        pairs, start = [], 0
        for common, extra_l, extra_r in zip(shared, lefts, rights):
            mid = start + len(common) + len(extra_l)
            end = mid + len(common) + len(extra_r)
            left = Configuration._trusted(atoms[start:mid], window)
            right = Configuration._trusted(atoms[mid:end], window)
            start = end
            cost = float(len(extra_l) + len(extra_r))
            realised = metrics.rho1(left, right)
            if realised != cost:  # shared atoms cancel exactly; extras never collide a.s.
                raise InternalConsistencyError(
                    f"superposition cost hint {cost} disagrees with rho1 {realised}"
                )
            pairs.append(CoupledPair(left=left, right=right, cost_hint=cost))
        return pairs

    def _layer_points(self, n: int, seed: SeedSpec) -> list[list[np.ndarray]]:
        """Each pair's points of the shared, left-extra and right-extra layers.

        The pairs' generators live only in this call, so that the memory
        they hold is free again before the configurations are built.
        """
        rngs = [seed.child(i).rng() for i in range(n)]
        layers = []
        for layer in (self.shared, self.left_extra, self.right_extra):
            mass = _count_mean(layer)
            counts = [int(rng.poisson(mass)) for rng in rngs]
            points = _rejection_rounds(layer, counts, rngs)
            at = [0, *accumulate(counts)]
            layers.append([points[a:b] for a, b in zip(at, at[1:])])
        return layers

    def estimate_mean_cost(self, n_samples: int, seed: SeedSpec) -> Estimate:
        """Monte Carlo mean of the coupling cost (counts only, vectorised)."""
        if n_samples < 2:
            raise ValidationError("need at least two samples")
        rng = seed.rng()
        costs = rng.poisson(self.left_extra.total_mass, size=n_samples) + rng.poisson(
            self.right_extra.total_mass, size=n_samples
        )
        return estimate_from_values(costs.astype(float), seed)


# --------------------------------------------------------------------------
# time-change coupling for the Wasserstein distance on the half-line
# --------------------------------------------------------------------------

_BRACKET = 1e-6  # v_inverse's bisection bracket, the square root of its tolerance 1e-12
_TABLE_LEVELS = 16  # most bisection levels of v_inverse answered by its table
_BUCKET_ENTRIES = 4  # table entries per bucket of _count_below's index, on average
_BLOCK = 32768  # points of r per v_inverse block
_CHECK_GRID = 4097  # points of the grid that TimeChangeSpec is validated on
# atoms per chunk of TimeChangeCoupling.estimate_mean_cost: two v_inverse blocks,
# so its temporaries stay that small however many draws it averages
_CHUNK_ATOMS = 2 * _BLOCK


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

    def __post_init__(self):
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValidationError("horizon must be a positive finite real")
        grid = np.linspace(0.0, self.horizon, _CHECK_GRID)
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
    def _bisection_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The first levels of :meth:`v_inverse`'s bisection, and how many
        levels remain after them.

        Bisection runs ``levels = ceil(log2(max(horizon / _BRACKET, 2))) + 1``
        levels in all; the table holds the first K = min(levels,
        ``_TABLE_LEVELS``) of them.  Returns ``(ends, vt, levels - K)``:
        ``ends`` holds 0, the 2^K - 1 midpoints of those levels in increasing
        order and the horizon, each built by the bisection's own
        ``0.5 * (lo + hi)`` from its bracket, so they are the floats
        bisection visits; ``vt`` is v at the midpoints.  When ``vt`` is not
        nondecreasing, a bracket search on it would not repeat bisection's
        decisions, so the table has K = 0 levels: ``ends = [0, horizon]``,
        an empty ``vt``, and every level is left to run.
        """
        levels = int(math.ceil(math.log2(max(self.horizon / _BRACKET, 2.0)))) + 1
        tabled = min(levels, _TABLE_LEVELS)
        whole = np.array([0.0, self.horizon])
        ends = whole
        for _ in range(tabled):
            mids = 0.5 * (ends[:-1] + ends[1:])
            out = np.empty(2 * ends.size - 1)
            out[0::2] = ends
            out[1::2] = mids
            ends = out
        vt = self.v(ends[1:-1])
        if not np.all(vt[1:] >= vt[:-1]):
            return whole, vt[:0], levels
        return ends, vt, levels - tabled

    @cached_property
    def _bracket_index(self) -> "_BucketIndex":
        """:func:`_bucket_index` of the table's ``vt``, built once."""
        return _bucket_index(self._bisection_table[1])

    def v_inverse(self, r):
        """Invert v to absolute tolerance 1e-12 (vectorised).

        Bisection brackets the root to width ``_BRACKET`` = 1e-6, then two
        Newton steps polish it to the bracket width squared (v' = 1 + U' > 0
        keeps Newton safe), so the identity time change inverts exactly.

        The table's bisection levels (:attr:`_bisection_table`, at most 16)
        are looked up instead of run: because its ``vt`` is nondecreasing,
        the number of its entries below ``r`` (:func:`_count_below`: a bucket
        lookup, then a branch-free descent of at most 16 steps over the
        bucket, with no sorting) gives the bracket that those decisions
        ``v(mid) < r`` reach; a NaN key compares false throughout, so the
        lookup and bisection both send it left.  A table of 0 levels gives
        every key the bracket [0, horizon].  The remaining levels keep each
        key's ``lo`` and ``hi`` side by side in one ``(B, 2)`` array and
        store ``mid`` into the ``lo`` slot where ``v(mid) < r``, else into
        the ``hi`` slot, in one indexed store: it copies the value, so it
        cannot change it, and it has no per-element branch to mispredict.
        Two Newton steps follow, so the result is bit-identical to plain
        bisection.  ``r`` is processed in fixed blocks so that the
        temporaries stay small; every operation is elementwise, so the
        blocks change no value.
        """
        r = np.asarray(r, float)
        flat = r.reshape(-1)
        out = np.empty(flat.shape)
        ends, vt, levels = self._bisection_table
        index = self._bracket_index
        hi_slots = np.arange(1, 2 * min(flat.size, _BLOCK), 2)  # flat index of each key's hi
        for start in range(0, flat.size, _BLOCK):
            rb = flat[start : start + _BLOCK]
            s = _count_below(vt, rb, index)
            lh = np.empty((rb.size, 2))  # each key's bracket [lo, hi]
            lh[:, 0] = ends.take(s)
            lh[:, 1] = ends[1:].take(s)
            slots = hi_slots[: rb.size]
            for _ in range(levels):
                mid = 0.5 * (lh[:, 0] + lh[:, 1])
                lh.reshape(-1)[slots - (self.v(mid) < rb)] = mid  # lo where the root is above mid
            t = 0.5 * (lh[:, 0] + lh[:, 1])
            for _ in range(2):
                slope = 1.0 + np.asarray(self.U_prime(t), float)
                t = np.clip(t - (self.v(t) - rb) / slope, 0.0, self.horizon)
            out[start : start + rb.size] = t
        return out.reshape(r.shape)[()]  # a numpy scalar for scalar r, as before


class _BucketIndex(NamedTuple):
    """Where :func:`_count_below` starts its descent for each key.

    A key goes to bucket ``int(_bucket_coordinate(key, lo, hi, scale))``,
    a nondecreasing map of the key with values in [0, first.size - 1] that
    sends NaN to bucket 0.  ``first[b]`` is where the descent starts for
    bucket b, and ``half`` is its first step.
    """

    lo: float
    hi: float
    scale: float
    first: np.ndarray
    half: int


def _bucket_index(a: np.ndarray) -> _BucketIndex:
    """The :class:`_BucketIndex` of a nondecreasing array of 2^K - 1 entries.

    The buckets split the range of ``a``'s finite entries into about
    ``a.size / _BUCKET_ENTRIES`` equal parts (one bucket when that range is
    empty or wider than the largest double).  The entries of ``a`` in a
    bucket b are a run ``a[start_b : start_b + span_b]``, where start_b is
    the number of entries in lower buckets: a key in bucket b exceeds
    every entry in lower buckets and no entry in higher ones, so its count
    of entries below lies in [start_b, start_b + span_b].  A descent of
    ``steps`` = bit length of the largest span covers 2^steps - 1 >= span_b
    entries from any start; since a is sorted, it stays exact on any window
    that holds the count, so ``first[b]`` moves the window left where it
    would run past the end of ``a``.  steps <= K, as no span exceeds a.size.
    """
    i, j = a.searchsorted(-math.inf, "right"), a.searchsorted(math.inf, "left")  # a[i:j] is finite
    lo, hi = (float(a[i]), float(a[j - 1])) if i < j else (0.0, 0.0)
    buckets = max(a.size // _BUCKET_ENTRIES, 1)
    width = hi - lo
    scale = (buckets - 1) / width if 0 < width < math.inf else 0.0
    if not 0 < scale < math.inf:  # one bucket, with no arithmetic that could overflow
        lo = hi = scale = 0.0
    # start_b counts the entries whose coordinate is below b, which are those in lower buckets
    start = _bucket_coordinate(a, lo, hi, scale).searchsorted(np.arange(buckets), "left")
    steps = int(np.diff(start, append=a.size).max()).bit_length()
    first = np.minimum(start, a.size - (2**steps - 1), out=start)
    return _BucketIndex(lo, hi, scale, first, 2**steps // 2)


def _bucket_coordinate(keys: np.ndarray, lo: float, hi: float, scale: float) -> np.ndarray:
    """Each key's bucket coordinate, a float whose integer part is its bucket."""
    c = np.fmax(keys, lo)  # NaN -> lo
    np.fmin(c, hi, out=c)  # no inf or NaN left
    c -= lo
    c *= scale
    return c


def _count_below(a: np.ndarray, keys: np.ndarray, index: _BucketIndex | None = None) -> np.ndarray:
    """For each key, the number of entries of ``a`` below it.

    ``a`` is nondecreasing with 2^K - 1 entries, K >= 0; for keys that are
    not NaN this is ``searchsorted(a, keys, side="left")``, and a NaN key
    gets 0.  ``index`` is ``_bucket_index(a)``, built here when not given.
    The key's bucket gives the start ``s`` of a branch-free descent,
    ``s += half * (a[s + half - 1] < key)`` for half = ``index.half``, ...,
    1, vectorised over the keys, with no sorting.
    """
    if index is None:
        index = _bucket_index(a)
    s = index.first.take(_bucket_coordinate(keys, index.lo, index.hi, index.scale).astype(np.intp))
    half = index.half
    while half:
        s += half * (a[half - 1 :].take(s) < keys)  # a[s + half - 1], gathered through a view
        half //= 2
    return s


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

    def estimate_mean_cost(self, n_samples: int, seed: SeedSpec) -> Estimate:
        """Monte Carlo mean of the per-draw coupling cost, vectorised across draws.

        All draws' counts come first, then the atoms of whole draws in chunks
        of about ``_CHUNK_ATOMS``; the generator yields the same doubles
        however its uniform draws are split, so the chunks change no value.
        """
        if n_samples < 2:
            raise ValidationError("need at least two samples")
        rng = seed.rng()
        v_end = self.tc.v_end
        counts = rng.poisson(v_end, size=n_samples)
        costs = np.empty(n_samples)
        done = 0
        while done < n_samples:
            take = int(
                max(1, min(n_samples - done, _CHUNK_ATOMS // max(int(v_end) + 1, 1)))
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
