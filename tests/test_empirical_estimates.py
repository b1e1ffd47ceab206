"""The empirical transport ``Estimate`` does not depend on the optimal plan.

Its mean is the exact optimum and its std_error comes from the largest cost
dispersion over all optimal plans.  rho0, and rho1 on sharing graphs that
are partial matchings, are solved in closed form; every other case by two
dense ``emd`` solves.  Both must give the same bytes, match a two-stage
HiGHS LP (minimise the cost, then maximise sum w * C^2 on the optimal face),
and not change when the lists are permuted.
"""

import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppt
from ppt import Configuration, SeedSpec, Window, metrics, transport
from ppt.cli import parse_density_expr

from test_cost_matrices import interned_rho1, per_pair, sample_lists

UNIT = Window([0.0], [1.0])


def estimate_bytes(est) -> bytes:
    return struct.pack("<dd", est.mean, est.std_error)


def dense(metric):
    """The named metric as a callable, which takes the dense path."""
    return lambda x, y: float(getattr(metrics, metric)(x, y))


def highs_two_stage(C):
    """(optimum, largest dispersion over optimal plans) of the transport
    with uniform marginals, from two HiGHS LPs."""
    n, m = C.shape
    A = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    b = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    c = C.ravel()
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    first = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=tight)
    assert first.status == 0
    # no slack on the cost: a plan off the face by e in cost can gain about
    # e / (smallest positive reduced cost) in sum w * C^2
    second = scipy.optimize.linprog(
        -(c * c), A_ub=c[None], b_ub=[first.fun], A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=tight
    )
    assert second.status == 0
    return first.fun, -second.fun - first.fun**2


def assert_matches_highs(est, C):
    n, m = C.shape
    opt, var = highs_two_stage(C)
    assert est.mean == pytest.approx(opt, rel=1e-9, abs=1e-9)
    assert est.std_error**2 * min(n, m) == pytest.approx(var, rel=1e-9, abs=1e-9)


@st.composite
def matching_lists(draw):
    """Two lists of 1-d configurations in which each configuration shares
    atoms with at most one configuration of the other list: pairs of a
    partial matching hold common values (repeated up to twice on each side,
    possibly not shared at all), everything else is private."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n, m)))
    rows = draw(st.permutations(range(n)))[:k]
    cols = draw(st.permutations(range(m)))[:k]
    atoms_mu, atoms_nu = [[] for _ in range(n)], [[] for _ in range(m)]
    fresh = itertools.count(1)
    for i, j in zip(rows, cols):
        for _ in range(draw(st.integers(1, 3))):
            value = next(fresh) / 1024
            atoms_mu[i] += [value] * draw(st.integers(0, 2))
            atoms_nu[j] += [value] * draw(st.integers(0, 2))
    for atoms in atoms_mu + atoms_nu:
        atoms += [next(fresh) / 1024 for _ in range(draw(st.integers(0, 2)))]
    as_configs = lambda lists: [Configuration(np.array(a, float).reshape(-1, 1), UNIT) for a in lists]
    return as_configs(atoms_mu), as_configs(atoms_nu)


@settings(max_examples=150, deadline=None)
@given(matching_lists())
def test_structured_path_equals_the_dense_path_and_highs(lists):
    mu, nu = lists
    for metric in ("rho0", "rho1"):
        est = ppt.estimate_rubinstein_empirical(mu, nu, metric)
        assert estimate_bytes(est) == estimate_bytes(ppt.estimate_rubinstein_empirical(mu, nu, dense(metric)))
        assert_matches_highs(est, per_pair(mu, nu, getattr(metrics, metric)))


@settings(max_examples=100, deadline=None)
@given(sample_lists(max_atoms=3))
def test_rho0_on_any_sharing_graph_equals_the_dense_path(lists):
    # repeated coordinates make many multiset-equal groups
    mu, nu = lists
    est = ppt.estimate_rubinstein_empirical(mu, nu, "rho0")
    assert estimate_bytes(est) == estimate_bytes(ppt.estimate_rubinstein_empirical(mu, nu, dense("rho0")))
    assert_matches_highs(est, per_pair(mu, nu, metrics.rho0))


@settings(max_examples=100, deadline=None)
@given(sample_lists(max_atoms=3), st.data())
def test_estimate_bytes_do_not_depend_on_list_order(lists, data):
    mu, nu = lists
    mu2 = data.draw(st.permutations(mu))
    nu2 = data.draw(st.permutations(nu))
    for metric in ("rho0", "rho1"):
        want = estimate_bytes(ppt.estimate_rubinstein_empirical(mu, nu, metric))
        assert estimate_bytes(ppt.estimate_rubinstein_empirical(mu2, nu2, metric)) == want


def test_non_matching_rho1_takes_the_dense_path():
    # column 0 shares an atom with both rows, so the closed form does not apply
    a, b, c = 0.25, 0.5, 0.75
    as_config = lambda *x: Configuration(np.array(x).reshape(-1, 1), UNIT)
    mu, nu = [as_config(a, b), as_config(a, c)], [as_config(a), as_config(b, c), as_config()]
    graph = transport._shared_atom_pairs(mu, nu)
    assert transport._rho1_matching_moments(*transport._atom_counts(mu, nu), *graph) is None
    est = ppt.estimate_rubinstein_empirical(mu, nu, "rho1")
    assert_matches_highs(est, per_pair(mu, nu, metrics.rho1))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 1, 2, 3, math.inf]), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
@example([[0, 1], [1, 0]])
@example([[1, 1, 2], [1, 1, 2], [0, 3, 3]])
@example([[math.inf, math.inf], [0, 0]])  # no finite plan
@example([[0, math.inf, 1], [1, 0, math.inf], [math.inf, 1, 0]])
def test_dense_moments_equal_the_widest_optimal_permutation(costs):
    # square uniform marginals: the optimal plans are the convex hull of the
    # optimal permutations, so the widest dispersion is attained on one.  A
    # permutation through a +inf cell is no plan, and without any plan the
    # moments are None.  The dispersion solve starts from the mean solve's
    # tree, whose arcs off the optimal face cost the big M there
    C = np.array(costs, float)
    n = C.shape[0]
    perms = [p for p in itertools.permutations(range(n)) if all(costs[i][p[i]] < math.inf for i in range(n))]
    if not perms:
        assert transport._dense_moments(C) is None
        return
    totals = [sum(costs[i][p[i]] for i in range(n)) for p in perms]
    best = min(totals)
    mean = Fraction(best, n)
    widest = max(
        sum((costs[i][p[i]] - mean) ** 2 for i in range(n)) / n for p, t in zip(perms, totals) if t == best
    )
    assert transport._dense_moments(C) == (float(mean), float(widest))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(5, 3, 8142)  # an arc of reduced cost 1.7e-4 next to the optimal face
def test_float_costs_match_highs(n, m, seed):
    C = np.random.default_rng(seed).uniform(0.0, 2.0, size=(n, m))
    est = ppt.estimate_rubinstein_empirical(
        [Configuration(np.empty((0, 1)), UNIT)] * n,
        [Configuration(np.empty((0, 1)), UNIT)] * m,
        lambda x, y, it=iter(C.ravel().tolist()): next(it),
    )
    assert_matches_highs(est, C)


def counted_solves(monkeypatch):
    """Count the dense solves (``emd`` runs through the counted function)."""
    calls = []
    solve = transport._emd_with_reduced_costs

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(transport, "_emd_with_reduced_costs", counted)
    return calls


def test_only_the_dispersion_solve_starts_from_a_tree(monkeypatch):
    # the mean solve's final tree starts the dispersion solve; every other
    # solve starts from the least-cost basis.  A cold dispersion solve
    # reaches the same moments
    simplex, starts = transport._network_simplex, []

    def spied(a, b, C, start=None):
        result = simplex(a, b, C, start)
        starts.append((start, result[3]))
        return result

    monkeypatch.setattr(transport, "_network_simplex", spied)
    empty = lambda n: [Configuration(np.empty((0, 1)), UNIT) for _ in range(n)]
    for seed, (n, m) in enumerate([(30, 30), (24, 16), (9, 40)]):
        rng = np.random.default_rng(seed)
        C = np.where(rng.uniform(size=(n, m)) < 0.2, math.inf, rng.integers(0, 3, size=(n, m)).astype(float))
        C[np.arange(max(n, m)) % n, np.arange(max(n, m)) % m] = 1.0  # a finite plan
        mu, nu = empty(n), empty(m)
        metric = lambda x, y: C[mu.index(x), nu.index(y)]  # configurations compare by identity
        starts.clear()
        est = ppt.estimate_rubinstein_empirical(mu, nu, metric)
        assert len(starts) == 2 and starts[0][0] is None and starts[1][0] is starts[0][1]
        starts.clear()
        ppt.doubling_diagnostic(mu, nu, metric)
        transport.emd(np.full(n, 1.0 / n), np.full(m, 1.0 / m), C)
        assert len(starts) == 3 and all(start is None for start, _ in starts)
        monkeypatch.setattr(transport, "_network_simplex", lambda a, b, C, start=None: simplex(a, b, C))
        assert estimate_bytes(ppt.estimate_rubinstein_empirical(mu, nu, metric)) == estimate_bytes(est)
        monkeypatch.setattr(transport, "_network_simplex", spied)


def test_coupled_samples_make_no_lp_solve(monkeypatch):
    sigma = ppt.IntensityMeasure.uniform(UNIT, 1.0)
    coupling = ppt.SuperpositionCoupling(sigma, parse_density_expr("const:2"), p_sup=2.0)
    pairs = coupling.sample_batch(300, SeedSpec(2025))
    left, right = [p.left for p in pairs], [p.right for p in pairs]
    proposals, accepted, _ = ppt.sample_gibbs_coupled(parse_density_expr("const:0.05"), sigma, 100, SeedSpec(7))
    calls = counted_solves(monkeypatch)
    for mu, nu in ((left, right), (left, right[:150]), (proposals, accepted)):
        for metric in ("rho0", "rho1"):
            ppt.estimate_rubinstein_empirical(mu, nu, metric)
            ppt.doubling_diagnostic(mu, nu, metric)
    assert calls == []
    # the same lists through the dense path: one solve for the optimum, one
    # for the dispersion
    est = ppt.estimate_rubinstein_empirical(left[:40], right[:30], dense("rho1"))
    assert len(calls) == 2
    assert est == ppt.estimate_rubinstein_empirical(left[:40], right[:30], "rho1")


def test_rectangular_estimate_equals_the_assignment_optimum():
    # 300 x 150 coupled lists: with every column doubled, the transport is a
    # 300 x 300 assignment whose mean cost is the optimum
    sigma = ppt.IntensityMeasure.uniform(UNIT, 1.0)
    coupling = ppt.SuperpositionCoupling(sigma, parse_density_expr("const:2"), p_sup=2.0)
    pairs = coupling.sample_batch(300, SeedSpec(2025, 10_000))
    left, right = [p.left for p in pairs], [p.right for p in pairs[:150]]
    C = np.repeat(interned_rho1(left, right), 2, axis=1)
    rows, cols = scipy.optimize.linear_sum_assignment(C)
    est = ppt.estimate_rubinstein_empirical(left, right, "rho1")
    assert est.mean == float(Fraction(int(C[rows, cols].sum()), 300))
    assert math.isfinite(est.std_error) and est.std_error > 0
