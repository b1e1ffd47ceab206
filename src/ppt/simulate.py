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
    _stream_rngs,
    estimate_from_values,
)
from .errors import InternalConsistencyError, SamplerHardnessError, ValidationError
from .quadrature import eval_points, integrate
from .transport import _rho1_per_pair

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
        # each generator draws its raw proposals, then its raw thresholds, and the
        # scaling runs once on the joined arrays.  Generator.uniform(low, high)
        # computes low + (high - low) * random() elementwise, so lo + width * u
        # and sup * u (= 0.0 + sup * u) are its values bit for bit.
        proposals = _joined([rngs[k].random((m, d)) for k, m in zip(active, sizes)])
        thresholds = _joined([rngs[k].random(m) for k, m in zip(active, sizes)])
        proposals *= width
        proposals += lo
        thresholds *= sup
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


def sample_poisson(sigma: IntensityMeasure, seed: SeedSpec) -> Configuration:
    """One draw of the Poisson process with intensity ``sigma``.

    The count is Poisson(total mass); given the count, atoms are i.i.d. from
    the normalised intensity via rejection against the constant envelope.
    """
    return poisson_batch_with_rng(sigma, 1, seed.rng())[0]


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
    # Python ints: numpy's fixed cost per call would dominate single draws
    offsets = list(accumulate(poisson_counts(sigma, n, rng).tolist(), initial=0))
    window = sigma.window
    pts = rejection_points(sigma, offsets[-1], rng) if offsets[-1] else np.empty((0, window.dim))
    atoms = _checked_atoms(pts, window)
    return [Configuration._trusted(atoms[lo:hi], window) for lo, hi in zip(offsets, offsets[1:])]


@dataclass(frozen=True)
class GammaMixer:
    shape: float
    scale: float = 1.0

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(self.shape, self.scale, size=size)


@dataclass(frozen=True)
class LognormalMixer:
    mu: float
    sigma_log: float

    def sample(self, rng: np.random.Generator, size=None):
        return rng.lognormal(self.mu, self.sigma_log, size=size)


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


@dataclass(frozen=True)
class ConstantMixer:
    value: float

    def sample(self, rng: np.random.Generator, size=None):
        return np.full(size, self.value) if size else self.value


def sample_cox(base: IntensityMeasure, mixer, seed: SeedSpec) -> Configuration:
    """Cox draw: random scalar Xi from the mixer, then Poisson(Xi * base)."""
    rng = seed.rng()
    xi = float(mixer.sample(rng))
    if xi <= 0:
        raise ValidationError(f"mixer produced a non-positive intensity factor {xi}")
    return poisson_batch_with_rng(base.scaled(xi), 1, rng)[0]


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
        proposal = poisson_batch_with_rng(sigma, 1, rng)[0]
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
        whatever ``n`` is, and equals ``sample(seed.child(i))``.  The n
        generators are derived together, from one array computation of the
        hash that ``SeedSpec.rng`` runs per stream (see
        :meth:`_layer_points`).  Each stream draws, in this order, the shared
        layer's count and points, then the left extras' and the right
        extras' (a layer with zero mass draws the count 0, which consumes
        nothing from the stream).  The layers are
        drawn for all pairs at once by :func:`_rejection_rounds`; every atom
        is checked against the window in one array, and each configuration
        is a row slice of it.  Each pair's cost hint, its number of extra
        atoms, must equal its rho1 (shared atoms cancel exactly, extras never
        collide almost surely); every pair is checked, by one rho1 over the
        whole batch that gives ``metrics.rho1``'s integers.
        """
        if n < 1:
            raise ValidationError("batch size must be positive")
        shared, extra_l, extra_r = self._layer_points(n, seed)
        window = self.sigma.window
        # pair i's rows: its left atoms (shared, left extras), then its right ones
        rows = [x for s, l, r in zip(shared, extra_l, extra_r) for x in (s, l, s, r)]
        atoms = _checked_atoms(np.concatenate(rows), window)
        ends = [0, *accumulate(len(x) for x in rows)][::2]  # every other row end closes a side
        sides = [Configuration._trusted(atoms[a:b], window) for a, b in zip(ends, ends[1:])]
        lefts, rights = sides[::2], sides[1::2]
        costs = [float(len(l) + len(r)) for l, r in zip(extra_l, extra_r)]
        realised = _rho1_per_pair(lefts, rights)
        bad = np.flatnonzero(realised != costs)
        if bad.size:
            i = int(bad[0])
            raise InternalConsistencyError(
                f"superposition cost hint {costs[i]} disagrees with rho1 {int(realised[i])}"
            )
        return [CoupledPair(left=l, right=r, cost_hint=c) for l, r, c in zip(lefts, rights, costs)]

    def _layer_points(self, n: int, seed: SeedSpec) -> list[list[np.ndarray]]:
        """Each pair's points of the shared, left-extra and right-extra layers.

        Pair i's generator is stream ``seed.stream_id + i``.  All n come from
        :func:`~ppt.core._stream_rngs`, which computes numpy's
        ``SeedSequence`` hash for the whole batch on arrays, so each equals
        ``seed.child(i).rng()`` bit for bit: NEP 19 keeps that hash fixed,
        and the tests compare the two.  The generators live only in this
        call, so that the memory they hold is free again before the
        configurations are built.
        """
        rngs = _stream_rngs(int(seed.seed), int(seed.stream_id), n)
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

_BRACKET = 1e-6  # v_inverse's Newton tolerance: the square root of its final tolerance 1e-12
_TABLE_STEPS = 2**14  # equal steps of v between the entries of v_inverse's table
_BLOCK = 32768  # points of r per v_inverse block
_CHECK_GRID = 4097  # points of the grid that TimeChangeSpec validates U' on
# atoms per chunk of TimeChangeCoupling.estimate_mean_cost: two v_inverse blocks,
# so its temporaries stay that small however many draws it averages
_CHUNK_ATOMS = 2 * _BLOCK


@dataclass(frozen=True, eq=False)
class TimeChangeSpec:
    """Deterministic time change on [0, horizon].

    ``U`` is continuously differentiable with U(0) = 0 and derivative
    ``U_prime`` valued in (-1, +inf).  U' is validated on a grid of 4097
    points, and the time change v(t) = t + U(t) must increase strictly on a
    grid of 2^16 equal steps of [0, horizon].  :meth:`v_inverse` builds its
    table (:attr:`_table`) on first use.
    """

    U: Callable[[np.ndarray], np.ndarray]
    U_prime: Callable[[np.ndarray], np.ndarray]
    horizon: float

    def __post_init__(self):
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValidationError("horizon must be a positive finite real")
        u0 = float(np.asarray(self.U(np.array([0.0])), float).reshape(-1)[0])
        if abs(u0) > 1e-9:
            raise ValidationError(f"U(0) must vanish, got {u0}")
        du = np.asarray(self.U_prime(np.linspace(0.0, self.horizon, _CHECK_GRID)), float)
        if np.any(~np.isfinite(du)) or np.any(du <= -1.0):
            raise ValidationError("U' must be finite and valued in (-1, +inf) on [0, horizon]")
        v = self.v(np.linspace(0.0, self.horizon, 2**16 + 1))
        if not np.all(v[1:] > v[:-1]):  # also false on NaN
            raise ValidationError(
                "time change v(t) = t + U(t) must be strictly increasing on a grid of 2^16 steps"
            )

    def v(self, t):
        t = np.asarray(t, float)
        return t + np.asarray(self.U(t), float)

    @property
    def v_end(self) -> float:
        return float(self.v(np.array([self.horizon]))[0])

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The brackets of :meth:`v_inverse`: ``(ts, v(ts))``, built once.

        ``ts[k]`` is v^{-1}(v(0) + k * dv), where dv = (``v_end`` - v(0)) /
        ``_TABLE_STEPS``, so ``ts[0]`` = 0 and ``ts[-1]`` = horizon.  The
        inner entries are solved by :meth:`_newton` as keys of their own,
        each from the bracket [0, horizon] and the linear start k * horizon /
        ``_TABLE_STEPS``.  Equal steps of v make a key's bracket one
        division and a floor.  A running maximum keeps ``ts``
        non-decreasing where v rises faster than the solves resolve; it
        changes no entry of a table that already increases.
        """
        ts = np.linspace(0.0, self.horizon, _TABLE_STEPS + 1)
        v0, v_end = self.v(ts[[0, -1]])
        keys = v0 + (v_end - v0) / _TABLE_STEPS * np.arange(1, _TABLE_STEPS)
        n = keys.size
        ts[1:-1] = self._newton(keys, np.zeros(n), np.full(n, self.horizon), ts[1:-1].copy())
        np.maximum.accumulate(ts, out=ts)
        return ts, self.v(ts)

    def v_inverse(self, r):
        """Invert v to absolute tolerance 1e-12 (vectorised).

        The table (:attr:`_table`) splits [v(0), ``v_end``] into
        ``_TABLE_STEPS`` equal steps dv, so a key r gets the bracket [lo, hi]
        = ``ts[b : b + 2]`` with b = floor((r - v(0)) / dv), clipped to the
        table; keys below v(0) or above ``v_end`` get an end bracket, and a
        NaN key the first.  The key starts at the linear interpolation of v
        between its bracket's ends, clamped into the bracket (NaN goes to
        ``lo``, as does a bracket with no rise of v).  A key that lies below
        v(lo) or above v(hi), which the rounding of the table can cause, has
        its root beyond that end: its bracket is widened there to 0 or the
        horizon.

        Safeguarded Newton (the bracketed hybrid ``rtsafe`` of Numerical
        Recipes, §9.4) then runs on the keys that have not converged: each
        evaluation moves ``lo`` or ``hi`` to the current point by the sign
        of v(t) - r, so the root stays bracketed, and a Newton step that
        would leave [lo, hi] or that is longer than half the key's previous
        step bisects the bracket instead.  A key has converged once its
        step is at most ``_BRACKET`` = 1e-6.  Bisections halve the bracket
        and Newton steps at least halve the step, so every key converges
        in finitely many rounds; on a smooth v one Newton step from the
        interpolated start is usually enough.  Two more Newton steps,
        clipped to [0, horizon] alone, polish the result to about the
        square of that step (v' = 1 + U' > 0 keeps Newton safe).  A
        polishing step longer than ``_BRACKET`` is dropped: the safeguarded
        result is already that close to the root, so such a step comes from
        a v that bends on a finer scale than the step, such as a near jump,
        and would leave the root.  The identity time change inverts exactly.

        Results are within 1e-12 absolute of the exact root, up to the
        rounding of v itself (its error divided by v') and the spacing of
        doubles near the root.  ``r`` is processed in fixed blocks so that
        the temporaries stay small; every key's iteration depends on that
        key alone, so the blocks change no value.
        """
        r = np.asarray(r, float)
        flat = r.reshape(-1)
        out = np.empty(flat.shape)
        ts, vs = self._table
        dv = (vs[-1] - vs[0]) / _TABLE_STEPS
        for start in range(0, flat.size, _BLOCK):
            keys = flat[start : start + _BLOCK]
            b = keys - vs[0]
            b /= dv
            np.fmax(b, 0.0, out=b)  # NaN -> 0
            np.fmin(b, _TABLE_STEPS - 1, out=b)
            b = b.astype(np.intp)  # the floor, as b >= 0
            lo, hi, v_lo, v_hi = ts.take(b), ts[1:].take(b), vs.take(b), vs[1:].take(b)
            t = keys - v_lo
            with np.errstate(divide="ignore", invalid="ignore"):  # inf keys, and brackets with no rise
                t *= hi - lo
                t /= v_hi - v_lo
            t += lo
            np.fmax(t, lo, out=t)  # NaN -> lo
            np.fmin(t, hi, out=t)
            # a key outside its bracket's rise of v has its root beyond that end
            np.copyto(lo, 0.0, where=keys < v_lo)
            np.copyto(hi, self.horizon, where=keys > v_hi)
            del b, v_lo, v_hi  # free before the rounds' own temporaries
            out[start : start + keys.size] = self._newton(keys, lo, hi, t)
        return out.reshape(r.shape)[()]  # a numpy scalar for scalar r, as before

    def _newton(self, keys, lo, hi, t):
        """Each key's root of v = key, by :meth:`v_inverse`'s safeguarded
        Newton from the start ``t`` in the bracket [``lo``, ``hi``] (both
        overwritten), then its two polishing steps.  Each round works on the
        keys that have not converged, gathered into arrays of their own."""
        going = keys
        roots = at = None  # the results, and where the keys still going sit in them (None: all)
        before = math.inf  # each key's previous step
        while True:
            f = self.v(t)
            f -= going
            below = f < 0
            np.copyto(lo, t, where=below)  # the root lies above t
            np.copyto(hi, t, where=~below)  # at or below t, or f is NaN
            f /= 1.0 + np.asarray(self.U_prime(t), float)
            nxt = t - f
            newton = (lo <= nxt) & (nxt <= hi)
            newton &= np.abs(f) <= 0.5 * before  # NaN steps fail every test and bisect
            np.copyto(nxt, 0.5 * (lo + hi), where=~newton)
            step = np.abs(t - nxt, out=f)
            if at is None:
                roots = nxt
            else:
                roots[at] = nxt
            more = step > _BRACKET
            if not more.any():
                break
            at = np.flatnonzero(more) if at is None else at[more]
            going, t, lo, hi, before = going[more], nxt[more], lo[more], hi[more], step[more]
        for _ in range(2):
            step = self.v(roots)
            step -= keys
            step /= 1.0 + np.asarray(self.U_prime(roots), float)
            np.copyto(step, 0.0, where=np.abs(step) > _BRACKET)  # NaN steps pass
            roots = np.clip(roots - step, 0.0, self.horizon)
        return roots


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
