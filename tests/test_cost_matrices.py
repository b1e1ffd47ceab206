"""Configuration cost matrices against the per-pair metric loop.

``transport._cost_matrix`` builds the rho0/rho1 matrices from interned atoms
and screens rho2 entries by atom count; every entry must equal what the
per-pair ``metrics`` call gives, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppt
from ppt import Configuration, SeedSpec, Window, metrics
from ppt.cli import parse_density_expr
from ppt.errors import ValidationError
from ppt.transport import _cost_matrix, assignment_solve

# a small pool makes repeated atoms, shared atoms and -0.0 against 0.0 common
COORDS = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1.0, -1.0]),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)


@st.composite
def sample_lists(draw, max_atoms=5):
    d = draw(st.integers(1, 3))
    window = Window([-1.0] * d, [1.0] * d)
    rows = st.lists(st.tuples(*[COORDS] * d), max_size=max_atoms)
    configs = rows.map(lambda r: Configuration(np.array(r, float).reshape(-1, d), window))
    mu = draw(st.lists(configs, min_size=1, max_size=6))
    nu = draw(st.lists(configs, min_size=1, max_size=6))
    return mu, nu


def per_pair(mu, nu, fn):
    return np.array([[float(fn(x, y)) for y in nu] for x in mu], dtype=float).reshape(len(mu), len(nu))


def old_rho2(omega, eta):
    """rho2 as it was computed before the one-atom shortcut."""
    if omega.n != eta.n:
        return math.inf
    if omega.n == 0:
        return 0.0
    gaps = omega.atoms[:, None, :] - eta.atoms[None, :, :]
    sq = np.einsum("ijk,ijk->ij", gaps, gaps)
    perm, _ = assignment_solve(sq)
    return math.sqrt(math.fsum(sq[np.arange(omega.n), perm]))


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(sample_lists())
def test_interned_rho0_rho1_equal_the_per_pair_loop(lists):
    mu, nu = lists
    for name in ("rho0", "rho1"):
        assert_bitwise_equal(_cost_matrix(mu, nu, name), per_pair(mu, nu, getattr(metrics, name)))


@settings(max_examples=200, deadline=None)
@given(sample_lists(max_atoms=3))
def test_rho2_count_screen_equals_the_per_pair_loop(lists):
    mu, nu = lists
    want = per_pair(mu, nu, old_rho2)
    assert_bitwise_equal(_cost_matrix(mu, nu, "rho2"), want)
    assert_bitwise_equal(per_pair(mu, nu, metrics.rho2), want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.tuples(*[COORDS] * d), st.tuples(*[COORDS] * d))))
def test_one_atom_rho2_equals_the_assignment_path(points):
    p, q = points
    w = Window([-1.0] * len(p), [1.0] * len(p))
    a, b = Configuration(np.array([p]), w), Configuration(np.array([q]), w)
    assert metrics.rho2(a, b) == old_rho2(a, b)
    assert math.copysign(1.0, metrics.rho2(a, b)) == 1.0


def test_signed_zero_is_one_atom():
    w = Window([-1.0, -1.0], [1.0, 1.0])
    a = Configuration(np.array([[-0.0, 0.5], [0.0, 0.5], [0.25, -0.0]]), w)
    b = Configuration(np.array([[0.0, 0.5], [0.0, 0.5], [0.25, 0.0]]), w)
    for name in ("rho0", "rho1"):
        assert _cost_matrix([a], [b], name)[0, 0] == 0.0


def test_repeated_atoms_match_with_multiplicity():
    w = Window([0.0], [1.0])
    mu = [Configuration(np.array([[0.5], [0.5], [0.5], [0.25]]), w)]
    nu = [Configuration(np.array([[0.5], [0.25], [0.25]]), w), ppt.empty_configuration(w)]
    # shared: one 0.5 and one 0.25 -> 4 + 3 - 2 * 2; against the empty one: 4
    assert _cost_matrix(mu, nu, "rho1").tolist() == [[3.0, 4.0]]
    assert _cost_matrix(mu, nu, "rho0").tolist() == [[1.0, 1.0]]


@pytest.mark.parametrize("name", ["rho0", "rho1", "rho2"])
def test_window_mismatch_raises_for_every_configuration(name):
    w, other = Window([0.0], [1.0]), Window([0.0], [2.0])
    same = [Configuration(np.array([[0.5]]), w) for _ in range(3)]
    odd = Configuration(np.array([[0.5]]), other)
    with pytest.raises(ValidationError):
        _cost_matrix(same, same[:2] + [odd], name)
    with pytest.raises(ValidationError):
        _cost_matrix([odd] + same, same, name)
    with pytest.raises(ValidationError):
        ppt.estimate_rubinstein_empirical(same, [odd], name)


def test_user_callables_keep_the_per_pair_path():
    w = Window([0.0], [1.0])
    mu = [Configuration(np.array([[0.1 * k]]), w) for k in range(3)]
    calls = []

    def count_gap(x, y):
        calls.append((x, y))
        return abs(x.n - y.n) + 0.5

    assert _cost_matrix(mu, mu[:2], count_gap).tolist() == [[0.5, 0.5]] * 3
    assert len(calls) == 6


def test_coupled_samples_rho1_matrix_equals_the_per_pair_loop():
    # the empirical-transport shape: superposition pairs sharing most atoms
    sigma = ppt.IntensityMeasure.uniform(Window([0.0, 0.0], [1.0, 1.0]), 3.0)
    coupling = ppt.SuperpositionCoupling(sigma, parse_density_expr("const:1.5"), p_sup=1.5)
    pairs = coupling.sample_batch(60, SeedSpec(7))
    mu, nu = [p.left for p in pairs], [p.right for p in pairs]
    for name in ("rho0", "rho1"):
        assert_bitwise_equal(_cost_matrix(mu, nu, name), per_pair(mu, nu, getattr(metrics, name)))


def test_doubling_diagnostic_equals_separate_half_and_full_solves():
    sigma = ppt.IntensityMeasure.uniform(Window([0.0], [1.0]), 2.0)
    mu = ppt.sample_poisson_batch(sigma, 13, SeedSpec(11))
    nu = ppt.sample_poisson_batch(sigma, 10, SeedSpec(12))
    for name in ("rho0", "rho1", "rho2"):
        diag = ppt.doubling_diagnostic(mu, nu, name)
        half = ppt.estimate_rubinstein_empirical(mu[:6], nu[:5], name).mean
        full = ppt.estimate_rubinstein_empirical(mu, nu, name).mean
        assert (diag["estimate_half"], diag["estimate_full"]) == (half, full)
