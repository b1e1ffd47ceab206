"""Foundational types: windows, configurations, intensity measures, seeded
randomness, and the add-one-point (discrete) gradient.

Conventions used throughout the package:

* a point is a 1-D ``float64`` array of length ``d``;
* a configuration stores its atoms as an ``(n, d)`` array with multiset
  semantics (storage order carries no meaning, coordinates compare exactly);
* a point function (density, intensity ratio ``p``, pair potential ``phi``)
  is vectorised over the last axis: it takes an ``(..., d)`` array and
  returns an array of shape ``x.shape[:-1]``.  Every evaluation is checked
  (:func:`ppt.quadrature.eval_points`) and any other output shape raises
  :class:`~ppt.errors.ValidationError`; a function of one point at a time is
  adapted explicitly with :func:`ppt.pointwise`;
* a configuration functional ``F`` maps a :class:`Configuration` to a float.
  It may also carry ``stack(atoms, window)``, vectorised over configurations
  as point functions are over points: it takes a read-only ``(k, n, d)``
  array (k configurations of n atoms each in ``window``) and returns their k
  values as a ``float64`` array, each equal bit for bit to ``F`` on that row.
  The add-one-point gradients then make one ``stack`` call per atom count
  of the outer draws, on rows from several draws (see
  ``ppt.bounds._add_one_point_values``); without it F is called one
  configuration at a time;
* every random operation is driven by a :class:`SeedSpec`, so repeated calls
  with the same spec are bit-identical.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import EnvelopeViolationError, ValidationError
from .quadrature import eval_points, integrate

__all__ = [
    "Window",
    "Configuration",
    "IntensityMeasure",
    "SeedSpec",
    "Estimate",
    "multiset_equal",
    "grad_sharp",
    "rademacher_check",
    "config_to_coords",
    "config_from_coords",
]

MAX_WINDOW_DIM = 4  # marked configurations use time as an extra coordinate


def _as_tuple(values, name: str) -> tuple[float, ...]:
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite, got {values!r}")
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class Window:
    """Axis-aligned bounded box in R^d, 1 <= d <= 4.

    ``dim`` (d) is a plain attribute, stored once when the window is built.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __init__(self, lower, upper):
        object.__setattr__(self, "lower", _as_tuple(lower, "lower"))
        object.__setattr__(self, "upper", _as_tuple(upper, "upper"))
        if len(self.lower) != len(self.upper):
            raise ValidationError("lower and upper must have the same length")
        if len(self.lower) > MAX_WINDOW_DIM:
            raise ValidationError(
                f"window dimension {len(self.lower)} exceeds supported {MAX_WINDOW_DIM}"
            )
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ValidationError("window requires lower[i] < upper[i] for all i")
        # read-only array copies of the bounds, the volume and the dimension,
        # built once: membership tests run for every atom added to a
        # configuration, the volume for every rejection sampler call and the
        # dimension check for every count
        for name, values in (("_lo", self.lower), ("_hi", self.upper)):
            arr = np.array(values, float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        with np.errstate(over="ignore"):  # a window wider than the largest double has volume inf
            volume = float(np.prod(np.asarray(self.upper) - np.asarray(self.lower)))
        object.__setattr__(self, "_volume", volume)
        object.__setattr__(self, "dim", len(self.lower))

    @property
    def volume(self) -> float:
        return self._volume

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(lower, upper)`` arrays."""
        return self._lo, self._hi

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership test over the last axis of an (..., d) array of points."""
        pts = np.asarray(points, float)
        return ((pts >= self._lo) & (pts <= self._hi)).all(axis=-1)

    def _require_dim(self, dim: int, what: str) -> None:
        """Raise ``ValidationError`` unless this window, used as a ``what``
        window on a configuration of dimension ``dim``, has that dimension."""
        if self.dim != dim:
            raise ValidationError(
                f"{what} window dimension {self.dim} does not match configuration dimension {dim}"
            )


def _checked_atoms(atoms, window: Window) -> np.ndarray:
    """Frozen (n, d) atom array, checked against ``window``: dimension,
    finiteness and membership of every atom."""
    arr = np.asarray(atoms, dtype=float)
    if arr.shape == (0,):
        arr = arr.reshape(0, window.dim)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(f"atoms must be an (n, d) array, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    if arr.shape[1] != window.dim:
        raise ValidationError(
            f"atom dimension {arr.shape[1]} does not match window dimension {window.dim}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError("atom coordinates must be finite")
    if arr.size and not np.all(window.contains(arr)):
        raise ValidationError("every atom must lie inside the window")
    return arr


@dataclass(frozen=True, eq=False)
class Configuration:
    """Finite multiset of points inside a governing window.

    Atom order is storage only; all comparisons are multiset comparisons
    under exact coordinate equality.  The empty configuration is valid.
    """

    atoms: np.ndarray
    window: Window

    def __init__(self, atoms, window: Window):
        object.__setattr__(self, "atoms", _checked_atoms(atoms, window))
        object.__setattr__(self, "window", window)

    @classmethod
    def _trusted(cls, atoms: np.ndarray, window: Window) -> "Configuration":
        """Build from atoms already checked against ``window`` (as ``__init__``
        checks them), without checking or copying them again.

        ``atoms`` must be a read-only, C-contiguous ``float64`` array of shape
        ``(n, window.dim)``, such as ``_checked_atoms`` returns or a row slice
        of one; it is stored as given.
        """
        out = object.__new__(cls)
        fields = out.__dict__  # what object.__setattr__ writes, without its cost per call
        fields["atoms"] = atoms
        fields["window"] = window
        return out

    @property
    def n(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.window.dim

    def multiset(self) -> Counter:
        return Counter(tuple(row) for row in self.atoms)

    def add(self, point) -> "Configuration":
        """Return the configuration with one extra atom at ``point``.

        Only the new point is validated: the atoms already held are frozen
        and were validated when this configuration was built.
        """
        pt = _checked_atoms(np.asarray(point, float).reshape(1, -1), self.window)
        atoms = np.vstack([self.atoms, pt])
        atoms.setflags(write=False)
        return Configuration._trusted(atoms, self.window)

    def restrict(self, window: Window) -> "Configuration":
        """Restriction: keep only the atoms lying inside ``window``."""
        window._require_dim(self.dim, "restriction")
        keep = window.contains(self.atoms)
        return Configuration(self.atoms[keep], window)

    def count_in(self, window: Window) -> int:
        """Number of atoms inside the box ``window`` (faces included).

        ``window`` must have the configuration's dimension, else
        :class:`~ppt.errors.ValidationError`.  The atoms are compared in
        plain Python, which skips numpy's fixed per-call cost on the small
        configurations counted per sample; the comparisons are the doubles
        ``lower <= x <= upper`` of ``window.contains``, so the count is
        exactly the number of atoms it accepts.
        """
        if window.dim != self.window.dim:
            window._require_dim(self.window.dim, "count")
        lower, upper = window.lower, window.upper
        dims = range(len(lower))
        count = 0
        for row in self.atoms.tolist():
            for k in dims:
                if not lower[k] <= row[k] <= upper[k]:
                    break
            else:
                count += 1
        return count


def _require_shared_window(omega: Configuration, eta: Configuration) -> None:
    if omega.window != eta.window:
        raise ValidationError("configurations must share one window")


def multiset_equal(omega: Configuration, eta: Configuration) -> bool:
    if omega.n != eta.n:
        return False
    return omega.multiset() == eta.multiset()


@dataclass(frozen=True)
class SeedSpec:
    """Root of a reproducible random stream.

    Identical ``(seed, stream_id)`` pairs give identical streams; distinct
    ``stream_id`` values give independent streams.  Operations derive internal
    substreams deterministically through ``rng(*path)``: a ``PCG64`` seeded
    by ``np.random.SeedSequence(entropy=seed, spawn_key=(stream_id, *path))``.

    Batch samplers derive the streams of ``child(i)`` for many i at once
    (:func:`_stream_rngs`): they compute the same ``SeedSequence`` hash on
    arrays, so each stream still equals ``child(i).rng()`` bit for bit.
    numpy's stream-compatibility policy (NEP 19) keeps that hash fixed, and
    the tests compare the two derivations.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if int(self.stream_id) < 0:
            raise ValidationError("stream_id must be nonnegative")

    def rng(self, *path: int) -> np.random.Generator:
        return _stream_rng(int(self.seed), (int(self.stream_id), *map(int, path)))

    def child(self, index: int) -> "SeedSpec":
        """Replicate stream: same seed, stream_id shifted by the replicate index."""
        return SeedSpec(self.seed, self.stream_id + int(index))

    def to_dict(self) -> dict:
        return {"seed": int(self.seed), "stream_id": int(self.stream_id)}


def _stream_rng(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """The generator of stream ``spawn_key`` under ``seed``: what
    ``SeedSpec(seed, spawn_key[0]).rng(*spawn_key[1:])`` returns, for
    callers that make many streams without a ``SeedSpec`` each."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


# SeedSequence's hash (numpy/random/bit_generator.pyx), whose output NEP 19
# keeps fixed, on uint32 words.  Its k-th ``hashmix`` call on a chain of hash
# constants h_0 = init, h_(k+1) = h_k * mult xors a word with h_k, multiplies
# it by h_(k+1) and xors the product with itself shifted right by 16;
# ``mix(x, y)`` makes the same shift of MIX_L * x - MIX_R * y.
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of ``hashmix`` calls ``calls`` on the
    chain that starts at ``init`` and steps by ``mult``."""
    chain = np.array(list(accumulate(range(max(calls) + 1), lambda h, _: h * mult & 0xFFFFFFFF, initial=init)), np.uint32)
    calls = np.array(calls)
    return chain[calls], chain[calls + 1]


# Calls 0-15 of the pool's chain mix in the seed's four words; a one-word
# spawn key then enters each pool word 0-3 through calls 16-19.
# generate_state(4, uint64) hashes the pool words 0-3, 0-3 into its 8 output
# words through calls 0-7 of its own chain, so a pool is carried as 8 columns.
_SPAWN_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, [16, 17, 18, 19] * 2)
_OUT_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, range(8))


def _hashmix(words: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``hashmix`` of each column of ``words`` by its own call's constants."""
    xor, mult = consts
    words = (words ^ xor) * mult
    return words ^ words >> 16


class _SeedState(ISeedSequence):
    """One stream's PCG64 seed words, ``SeedSequence.generate_state(4,
    np.uint64)`` computed by :func:`_stream_rngs`; ``PCG64`` takes them from
    here without hashing again."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValidationError("a stream's seed state holds PCG64's 4 uint64 words only")
        return self.state


def _stream_rngs(seed: int, first: int, n: int) -> list[np.random.Generator]:
    """The generators ``_stream_rng(seed, (first + i,))`` for i < n, the
    streams of ``SeedSpec(seed, first).child(i)``, from one hash on arrays.

    A spawn key only mixes more words into the pool that the seed's words
    leave, so each stream starts from ``SeedSequence(seed).pool`` (``seed``
    below 2^64, as in a ``SeedSpec``).  Its spawn word is then mixed in and
    the pool hashed into the state, for all streams and pool words at once;
    ``PCG64`` takes each state row through :class:`_SeedState`.  A stream id
    of 2^32 or more is a spawn key of two or more words, so those streams
    come from :func:`_stream_rng` one at a time.
    """
    short = min(n, max(2**32 - first, 0))  # the streams whose ids are one word
    spawn = _hashmix(np.arange(first, first + short, dtype=np.uint32)[:, None], _SPAWN_HASH)
    pool = np.random.SeedSequence(seed).pool
    pool = np.concatenate((pool, pool)) * _MIX_L - spawn * _MIX_R
    pool ^= pool >> 16
    # generate_state's uint64 words are its uint32 words read little-endian
    state = _hashmix(pool, _OUT_HASH).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    rngs = [np.random.Generator(np.random.PCG64(_SeedState(row))) for row in state]
    return rngs + [_stream_rng(seed, (first + i,)) for i in range(short, n)]


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo result: mean, standard error, sample count and provenance.

    ``std_error`` is the sample standard deviation divided by sqrt(n_samples).
    ``seed`` is None for estimators fed with externally supplied samples.
    """

    mean: float
    std_error: float
    n_samples: int
    seed: SeedSpec | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValidationError("n_samples must be positive")
        if not (self.std_error >= 0 or math.isnan(self.std_error)):
            raise ValidationError("std_error must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": int(self.n_samples),
            "seed": self.seed.to_dict() if self.seed is not None else None,
        }


def estimate_from_values(values: np.ndarray, seed: SeedSpec | None) -> Estimate:
    """Plain mean/standard-error summary of a sample vector."""
    values = np.asarray(values, float)
    n = values.size
    if n == 0:
        raise ValidationError("cannot summarise an empty sample")
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean=mean, std_error=se, n_samples=n, seed=seed)


@dataclass(frozen=True, eq=False)
class IntensityMeasure:
    """Diffuse intensity on a window, given by a density against Lebesgue.

    ``density_sup`` is a user-supplied envelope needed for rejection sampling;
    it is validated opportunistically wherever the density is evaluated and an
    observed violation raises :class:`EnvelopeViolationError`.
    """

    density: Callable[[np.ndarray], float]
    window: Window
    density_sup: float
    label: str = ""
    total_mass_hint: float | None = None

    def __post_init__(self):
        if not (self.density_sup > 0) or not math.isfinite(self.density_sup):
            raise ValidationError("density_sup must be a positive finite real")

    @classmethod
    def uniform(cls, window: Window, rate: float = 1.0, label: str = "") -> "IntensityMeasure":
        if rate < 0:
            raise ValidationError("rate must be nonnegative")
        sup = rate if rate > 0 else 1.0
        return cls(
            density=lambda x, _r=float(rate): np.full(np.shape(x)[:-1], _r),
            window=window,
            density_sup=sup,
            label=label or f"const:{rate}",
            total_mass_hint=rate * window.volume if rate else 0.0,  # 0 * inf volume is NaN
        )

    def density_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the density on an (n, d) batch, enforcing the envelope."""
        pts = np.asarray(points, float)
        if pts.ndim < 2:
            pts = pts.reshape(1, -1)
        vals = eval_points(self.density, pts)
        if not vals.size:
            return vals
        # fmin and fmax skip NaN, as the elementwise comparisons did
        if np.fmin.reduce(vals, axis=None) < 0:
            raise ValidationError("density must be nonnegative on the window")
        if np.fmax.reduce(vals, axis=None) > self.density_sup * (1 + 1e-9):
            worst = float(vals.max())
            raise EnvelopeViolationError(
                f"observed density {worst} exceeds declared density_sup {self.density_sup}"
            )
        return vals

    @cached_property
    def total_mass(self) -> float:
        if self.total_mass_hint is not None:
            return float(self.total_mass_hint)
        lo, hi = self.window.bounds()
        return float(integrate(self.density_at, lo, hi, rel_tol=1e-8))

    def scaled(self, factor: float) -> "IntensityMeasure":
        """The measure ``factor * sigma``, with total mass ``factor *
        self.total_mass``: the base's mass is read (and, without a hint,
        integrated and cached) here, so the scaled mass does not depend on
        what was read before."""
        if factor < 0:
            raise ValidationError("scaling factor must be nonnegative")
        if factor == 0:
            return IntensityMeasure.uniform(self.window, 0.0, label=f"0*({self.label})")
        base = self

        def scaled_density(x, _f=factor, _b=base):
            return _f * np.asarray(_b.density(x), dtype=float)

        return IntensityMeasure(
            density=scaled_density,
            window=base.window,
            density_sup=factor * base.density_sup,
            label=f"{factor}*({base.label})" if base.label else "",
            total_mass_hint=factor * base.total_mass,
        )


def grad_sharp(F: Callable[[Configuration], float], omega: Configuration, x) -> float:
    """Add-one-point finite difference F(omega + x) - F(omega)."""
    return float(F(omega.add(x))) - float(F(omega))


def rademacher_check(
    F: Callable[[Configuration], float],
    sigma: IntensityMeasure,
    n_samples: int,
    seed: SeedSpec,
) -> float:
    """Largest |F(omega + x) - F(omega)| over sampled (omega, x) pairs.

    omega is Poisson with intensity ``sigma`` and x is drawn from the
    normalised intensity.  For a functional that is genuinely 1-Lipschitz for
    the trivial or total-variation distance the result is at most 1.
    """
    from .bounds import _add_one_point_values  # bounds imports core; avoid a cycle

    if n_samples < 1:
        raise ValidationError("n_samples must be positive")
    if sigma.total_mass <= 0:
        raise ValidationError("rademacher_check needs positive total mass to sample x")
    f0, f1 = _add_one_point_values(F, sigma, n_samples, 1, seed.rng(), seed.rng(1))
    # fmax skips NaN differences, as the running maximum it replaces did
    return float(np.fmax.reduce(np.abs(f1[:, 0] - f0), initial=0.0))


# --- configuration serialization -------------------------------------------
#
# A configuration as a list of coordinate lists, ready for ``json``.  Decimal
# floats use repr round-tripping, which is binary exact for 64-bit floats; hex
# strings are offered for a textually bit-exact variant.


def config_to_coords(config: Configuration, hex_floats: bool = False) -> list:
    if hex_floats:
        return [[float(v).hex() for v in row] for row in config.atoms]
    return [[float(v) for v in row] for row in config.atoms]


def config_from_coords(coords: Sequence[Sequence], window: Window) -> Configuration:
    rows = []
    for row in coords:
        rows.append([float.fromhex(v) if isinstance(v, str) else float(v) for v in row])
    return Configuration(np.asarray(rows, float), window)
