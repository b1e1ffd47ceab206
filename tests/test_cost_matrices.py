"""Configuration cost matrices against the per-pair metric loop.

rho1 comes from counts of shared interned atoms (``transport._rho1_matrix``),
rho0 from groups of equal multisets (``transport._multiset_groups``), and
``transport._cost_matrix`` screens rho2 entries by atom count; every entry
must equal what the per-pair ``metrics`` call gives, bit for bit.  The rho2
estimates skip the matrix when the count classes admit no finite plan, with
the results of building it.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppt
from ppt import Configuration, SeedSpec, Window, metrics, transport
from ppt.cli import parse_density_expr
from ppt.errors import ValidationError
from ppt.simulate import poisson_batch_with_rng
from ppt.transport import _cost_matrix, _feasible_on_finite, _rho2_infeasible, assignment_solve

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


def interned_rho1(mu, nu):
    """The rho1 matrix from shared-atom counts, as the dense rho1 path builds it."""
    count_mu, count_nu = transport._atom_counts(mu, nu)
    return transport._rho1_matrix(count_mu, count_nu, *transport._shared_atom_pairs(mu, nu)).astype(float)


def grouped_rho0(mu, nu):
    """The rho0 matrix from the multiset groups the rho0 closed form uses."""
    group_mu, group_nu = transport._multiset_groups(mu, nu)
    return (group_mu[:, None] != group_nu[None, :]).astype(float)


STRUCTURED = {"rho0": grouped_rho0, "rho1": interned_rho1}


def old_rho2(omega, eta):
    """rho2 as it was computed before the one-atom shortcut and the rescaling
    of tiny gaps; None when the squared gap of a matched pair of distinct
    atoms is below the smallest normal double, where this formula loses it.

    The arguments are taken in the order ``metrics.rho2`` documents, which
    depends only on the multisets of atoms."""
    if omega.n != eta.n:
        return math.inf
    if omega.n == 0:
        return 0.0
    if omega.n > 1 and sorted(eta.atoms.tolist()) < sorted(omega.atoms.tolist()):
        omega, eta = eta, omega
    gaps = omega.atoms[:, None, :] - eta.atoms[None, :, :]
    sq = np.einsum("ijk,ijk->ij", gaps, gaps)
    perm, _ = assignment_solve(sq)
    rows = np.arange(omega.n)
    if np.any((sq[rows, perm] < 2.0**-1022) & np.any(gaps[rows, perm] != 0, axis=-1)):
        return None
    return math.sqrt(math.fsum(sq[rows, perm]))


def exact_rho2(omega, eta):
    """rho2 of equal-size configurations in rational arithmetic over every
    bijection, rounded at the end."""
    best = min(
        sum(
            (Fraction(x) - Fraction(y)) ** 2
            for i, j in enumerate(perm)
            for x, y in zip(omega.atoms[i].tolist(), eta.atoms[j].tolist())
        )
        for perm in itertools.permutations(range(omega.n))
    )
    if best == 0:
        return 0.0
    k = (best.numerator.bit_length() - best.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(best / Fraction(4) ** k), k)


def assert_rho2_matches_the_references(omega, eta, got):
    """Bit for bit the old formula where it holds, else the exact value to
    a few units in the last place, with no absolute slack around 0."""
    want = old_rho2(omega, eta)
    if want is None:
        assert got == pytest.approx(exact_rho2(omega, eta), rel=1e-15, abs=0.0)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(sample_lists())
def test_interned_rho0_rho1_equal_the_per_pair_loop(lists):
    mu, nu = lists
    for name, matrix in STRUCTURED.items():
        assert_bitwise_equal(matrix(mu, nu), per_pair(mu, nu, getattr(metrics, name)))


def configs_2d(*rows):
    window = Window([-1.0, -1.0], [1.0, 1.0])
    return [Configuration(np.array(r, float).reshape(-1, 2), window) for r in rows]


@settings(max_examples=200, deadline=None)
@given(sample_lists(max_atoms=3))
@example(  # old_rho2 in storage order differs from rho2 here in the last bit
    (
        configs_2d([(-0.0, 7.828275135559407e-80), (-0.0, -0.0), (-0.0, -0.0)]),
        configs_2d([(-0.0, -0.0), (-0.5, 0.9999999999999999), (1.0, 0.07260059688572773)]),
    )
)
def test_rho2_count_screen_equals_the_per_pair_loop(lists):
    mu, nu = lists
    want = per_pair(mu, nu, metrics.rho2)
    assert_bitwise_equal(_cost_matrix(mu, nu, "rho2"), want)
    for i, x in enumerate(mu):
        for j, y in enumerate(nu):
            assert_rho2_matches_the_references(x, y, want[i, j])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.tuples(*[COORDS] * d), st.tuples(*[COORDS] * d))))
def test_one_atom_rho2_equals_the_assignment_path(points):
    p, q = points
    w = Window([-1.0] * len(p), [1.0] * len(p))
    a, b = Configuration(np.array([p]), w), Configuration(np.array([q]), w)
    assert_rho2_matches_the_references(a, b, metrics.rho2(a, b))
    assert math.copysign(1.0, metrics.rho2(a, b)) == 1.0


def test_signed_zero_is_one_atom():
    w = Window([-1.0, -1.0], [1.0, 1.0])
    a = Configuration(np.array([[-0.0, 0.5], [0.0, 0.5], [0.25, -0.0]]), w)
    b = Configuration(np.array([[0.0, 0.5], [0.0, 0.5], [0.25, 0.0]]), w)
    for name, matrix in STRUCTURED.items():
        assert matrix([a], [b])[0, 0] == 0.0


def test_repeated_atoms_match_with_multiplicity():
    w = Window([0.0], [1.0])
    mu = [Configuration(np.array([[0.5], [0.5], [0.5], [0.25]]), w)]
    nu = [Configuration(np.array([[0.5], [0.25], [0.25]]), w), Configuration([], w)]
    # shared: one 0.5 and one 0.25 -> 4 + 3 - 2 * 2; against the empty one: 4
    assert interned_rho1(mu, nu).tolist() == [[3.0, 4.0]]
    assert grouped_rho0(mu, nu).tolist() == [[1.0, 1.0]]


@pytest.mark.parametrize("name", ["rho0", "rho1", "rho2"])
def test_window_mismatch_raises_for_every_configuration(name):
    w, other = Window([0.0], [1.0]), Window([0.0], [2.0])
    same = [Configuration(np.array([[0.5]]), w) for _ in range(3)]
    odd = Configuration(np.array([[0.5]]), other)
    for mu, nu in ((same, same[:2] + [odd]), ([odd] + same, same)):
        for solve in (ppt.estimate_rubinstein_empirical, ppt.doubling_diagnostic):
            with pytest.raises(ValidationError, match="one window"):
                solve(mu, nu, name)
    with pytest.raises(ValidationError, match="one window"):
        ppt.estimate_rubinstein_empirical(same, [odd], name)
    with pytest.raises(ValidationError, match="one window"):
        _cost_matrix(same, same[:2] + [odd], "rho2")


def test_cost_matrix_takes_rho2_or_a_callable():
    # rho0 and rho1 are solved from their structure, never from this matrix
    w = Window([0.0], [1.0])
    mu = [Configuration(np.array([[0.5]]), w)]
    for name in ("rho0", "rho1", "rho3"):
        with pytest.raises(ValidationError, match="unknown metric"):
            _cost_matrix(mu, mu, name)


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
    for name, matrix in STRUCTURED.items():
        assert_bitwise_equal(matrix(mu, nu), per_pair(mu, nu, getattr(metrics, name)))


def test_doubling_diagnostic_equals_separate_half_and_full_solves():
    sigma = ppt.IntensityMeasure.uniform(Window([0.0], [1.0]), 2.0)
    mu = poisson_batch_with_rng(sigma, 13, SeedSpec(11).rng())
    nu = poisson_batch_with_rng(sigma, 10, SeedSpec(12).rng())
    for name in ("rho0", "rho1", "rho2"):
        diag = ppt.doubling_diagnostic(mu, nu, name)
        half = ppt.estimate_rubinstein_empirical(mu[:6], nu[:5], name).mean
        full = ppt.estimate_rubinstein_empirical(mu, nu, name).mean
        assert (diag["estimate_half"], diag["estimate_full"]) == (half, full)


def with_counts(counts, window):
    """One configuration of ``k`` atoms per entry of ``counts``."""
    return [Configuration(np.linspace(0.1, 0.9, k).reshape(k, 1), window) for k in counts]


COUNTS = st.lists(st.integers(0, 3), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(COUNTS, COUNTS, st.booleans())
@example([0, 0], [0], False)  # empty configurations only
@example([0, 1], [1, 0], False)  # n = m, balanced with empty ones
@example([0, 0, 1], [0, 1, 1], False)  # n = m, unbalanced
@example([1, 1, 2], [1, 1, 1, 1, 2, 2], False)  # n != m, balanced
def test_count_screen_agrees_with_the_feasibility_prescreen(count_mu, count_nu, square):
    if square:
        count_nu = (count_nu * len(count_mu))[: len(count_mu)]
    w = Window([0.0], [1.0])
    mu, nu = with_counts(count_mu, w), with_counts(count_nu, w)
    n, m = len(mu), len(nu)
    finite = np.isfinite(per_pair(mu, nu, metrics.rho2))
    assert finite.tolist() == (np.array(count_mu)[:, None] == np.array(count_nu)[None, :]).tolist()
    feasible = _feasible_on_finite(np.full(n, 1.0 / n), np.full(m, 1.0 / m), finite)
    assert _rho2_infeasible(mu, nu, "rho2") == (not feasible)
    assert not _rho2_infeasible(mu, nu, "rho1")


def _screen_off(monkeypatch):
    monkeypatch.setattr(transport, "_rho2_infeasible", lambda samples_mu, samples_nu, metric: False)


def _counted_rho2(monkeypatch):
    calls = []
    rho2 = metrics.rho2

    def counted(omega, eta):
        calls.append(None)
        return rho2(omega, eta)

    monkeypatch.setattr(metrics, "rho2", counted)
    return calls


def test_infeasible_coupled_rho2_makes_no_rho2_call(monkeypatch):
    # superposition pairs: the right side holds extra atoms, so the two
    # lists' count classes do not balance and no finite plan exists
    sigma = ppt.IntensityMeasure.uniform(Window([0.0], [1.0]), 1.0)
    coupling = ppt.SuperpositionCoupling(sigma, parse_density_expr("const:2"), p_sup=2.0)
    pairs = coupling.sample_batch(40, SeedSpec(2025))
    mu, nu = [p.left for p in pairs], [p.right for p in pairs]
    calls = _counted_rho2(monkeypatch)
    est = ppt.estimate_rubinstein_empirical(mu, nu, "rho2")
    diag = ppt.doubling_diagnostic(mu, nu, "rho2")
    assert calls == []
    assert est.mean == math.inf and diag["estimate_full"] == diag["estimate_half"] == math.inf

    _screen_off(monkeypatch)
    assert ppt.estimate_rubinstein_empirical(mu, nu, "rho2") == est
    assert ppt.doubling_diagnostic(mu, nu, "rho2") == diag
    assert len(calls) > 0  # without the screen, the rho2 values are computed


def test_half_block_with_a_finite_plan_is_built_on_its_own(monkeypatch):
    w = Window([0.0], [1.0])
    mu, nu = with_counts([1, 2, 1, 1], w), with_counts([2, 1, 2, 2], w)
    calls = _counted_rho2(monkeypatch)
    diag = ppt.doubling_diagnostic(mu, nu, "rho2")
    # the half lists [1, 2] and [2, 1] balance, the full ones do not
    assert len(calls) == 2
    assert math.isfinite(diag["estimate_half"]) and diag["estimate_full"] == math.inf
    _screen_off(monkeypatch)
    assert ppt.doubling_diagnostic(mu, nu, "rho2") == diag
