import concurrent.futures
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppt
from ppt import (
    assignment_solve,
    doubling_diagnostic,
    dual_lower_bound,
    emd,
    estimate_rubinstein_empirical,
    exact_oracle_discrete,
)
from ppt import concentration, transport
from ppt.errors import InternalConsistencyError, TruncationError, ValidationError
from ppt.simulate import poisson_batch_with_rng

from conftest import PINNED_VERIFY, brute_force_assignment, config, emd_digests, seeded_emd_instances

# the benchmark's two oracle LPs and their values, and the two digests of
# emd_digests(); the same bytes at every CPU dispatch level (TestSameBytesOnEveryCpu)
ORACLE_LPS = (([0.5, 0.5], [1.0, 1.0], 17), ([1.0, 0.5], [2.0, 1.5], 18))
ORACLE_VALUES = [1.0000000000000138, 1.99999999998884]
PLAN_DIGESTS = [
    "58c1818d78598fddb6be24e1b6ba2a8ac0eb7833aae030ccaec145a494b5e80e",
    "5346eef05a69b9ede14b343c4c7abb239b79ded47f10a6bb425f6911491f02ba",
]


class TestAssignment:
    def test_one_by_one(self):
        perm, cost = assignment_solve(np.array([[3.5]]))
        assert list(perm) == [0] and cost == 3.5

    def test_matches_brute_force(self, seed):
        rng = seed.rng()
        for _ in range(300):
            n = int(rng.integers(1, 7))
            C = rng.uniform(-1, 1, size=(n, n))
            _, cost = assignment_solve(C)
            assert cost == brute_force_assignment(C)

    def test_matches_scipy_on_larger_instances(self, seed):
        rng = seed.rng(1)
        for n in (10, 25, 40):
            C = rng.uniform(0, 10, size=(n, n))
            perm, cost = assignment_solve(C)
            ri, ci = scipy.optimize.linear_sum_assignment(C)
            assert cost == pytest.approx(float(C[ri, ci].sum()), abs=1e-9)
            assert sorted(perm) == list(range(n))

    def test_tied_optima_return_the_tied_cost(self):
        C = np.array([[1.0, 2.0], [2.0, 1.0]])
        # both the identity and the swap... identity costs 2, swap costs 4
        _, cost = assignment_solve(C)
        assert cost == 2.0
        C = np.ones((3, 3))
        _, cost = assignment_solve(C)
        assert cost == 3.0

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            assignment_solve(np.ones((2, 3)))

    def test_infinite_entries_rejected(self):
        with pytest.raises(ValidationError):
            assignment_solve(np.array([[1.0, math.inf], [0.0, 1.0]]))


class TestEmd:
    def test_zero_diagonal(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = emd([0.5, 0.5], [0.5, 0.5], C)
        assert plan.cost == pytest.approx(0.0, abs=1e-15)

    def test_two_diracs(self):
        plan = emd([1.0], [1.0], np.array([[2.5]]))
        assert plan.cost == 2.5

    def test_birkhoff_uniform_weights(self, seed):
        rng = seed.rng(2)
        for n in (2, 3, 4):
            C = rng.uniform(0, 1, size=(n, n))
            plan = emd(np.full(n, 1 / n), np.full(n, 1 / n), C)
            _, cost = assignment_solve(C)
            assert plan.cost == pytest.approx(cost / n, abs=1e-12)

    def test_matches_lp_oracle(self, seed):
        # independent oracle: scipy linprog (HiGHS) on the flattened LP
        rng = seed.rng(3)
        for _ in range(20):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            a = rng.dirichlet(np.ones(n))
            b = rng.dirichlet(np.ones(m))
            C = rng.uniform(0, 5, size=(n, m))
            plan = emd(a, b, C)
            A_eq = []
            for i in range(n):
                row = np.zeros(n * m)
                row[i * m : (i + 1) * m] = 1.0
                A_eq.append(row)
            for j in range(m):
                row = np.zeros(n * m)
                row[j::m] = 1.0
                A_eq.append(row)
            res = scipy.optimize.linprog(
                C.ravel(), A_eq=np.array(A_eq), b_eq=np.concatenate([a, b]), method="highs"
            )
            assert res.success
            assert plan.cost == pytest.approx(res.fun, abs=1e-9)

    def test_permutation_invariance(self, seed):
        rng = seed.rng(4)
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(5))
        C = rng.uniform(0, 3, size=(4, 5))
        base = emd(a, b, C).cost
        pr = rng.permutation(4)
        pc = rng.permutation(5)
        permuted = emd(a[pr], b[pc], C[np.ix_(pr, pc)]).cost
        assert permuted == pytest.approx(base, abs=1e-10)

    def test_infeasible_returns_infinity(self):
        plan = emd([1.0], [1.0], np.array([[math.inf]]))
        assert plan.cost == math.inf

    def test_partial_infeasibility_blocks(self):
        # two mass atoms, second row can only reach the first column: feasible
        C = np.array([[1.0, math.inf], [2.0, math.inf]])
        plan = emd([0.5, 0.5], [1.0, 0.0], C)
        assert plan.cost == pytest.approx(1.5, abs=1e-12)
        # demanding mass on the unreachable column is infeasible
        plan = emd([0.5, 0.5], [0.5, 0.5], C)
        assert plan.cost == math.inf

    def test_feasibility_prescreen_on_long_augmenting_paths(self):
        # 1500 x 1500 bidiagonal finite masks: a recursive augmenting-path
        # search exceeded Python's recursion limit on these, and a simplex
        # started from big-M artificial arcs took minutes on them
        from ppt.transport import _feasible_on_finite

        n = 1500
        band = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool)
        w = np.full(n, 1.0 / n)
        assert _feasible_on_finite(w, w, band.T)
        assert _feasible_on_finite(w, w, band)
        for mask in (band.T, band):  # every cell of the band costs 1
            assert emd(w, w, np.where(mask, 1.0, math.inf)).cost == pytest.approx(1.0, abs=1e-12)
        # the last row moved to the first column: its augmenting path runs
        # through every other row, and fails at the end once the last column
        # is cut off
        shifted = band.copy()
        shifted[n - 1, n - 1] = False
        shifted[n - 1, 0] = True
        assert _feasible_on_finite(w, w, shifted)
        shifted[n - 2, n - 1] = False
        assert not _feasible_on_finite(w, w, shifted)
        assert emd(w, w, np.where(shifted, 1.0, math.inf)).cost == math.inf

    def test_perfect_matching_agrees_with_scipy(self, seed):
        from ppt.transport import _feasible_on_finite

        rng = seed.rng(8)
        for _ in range(300):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            finite = rng.uniform(size=(n, m)) < rng.uniform(0.1, 0.7)
            want = False
            if n <= m:
                rows, cols = scipy.optimize.linear_sum_assignment(np.where(finite, 0.0, 1.0))
                want = bool(finite[rows, cols].all())
            # every row and every column holds 1/n: all rows' mass is routed
            # exactly when every row can be matched to its own column
            assert _feasible_on_finite(np.full(n, 1.0 / n), np.full(m, 1.0 / n), finite) == want

    def test_mixed_infinite_entries_match_restricted_lp(self, seed):
        rng = seed.rng(5)
        for _ in range(10):
            n = 4
            C = rng.uniform(0, 2, size=(n, n))
            mask = rng.uniform(size=(n, n)) < 0.3
            np.fill_diagonal(mask, False)  # keep a feasible diagonal
            C = np.where(mask, math.inf, C)
            plan = emd(np.full(n, 0.25), np.full(n, 0.25), C)
            finiteC = np.where(np.isfinite(C), C, 1e9)
            _, cost = assignment_solve(finiteC)
            assert plan.cost == pytest.approx(cost / n, abs=1e-9)

    def test_mass_left_on_an_infinite_cost_arc_raises(self, monkeypatch):
        # only the feasibility screen may answer +inf: when it lets through
        # an instance without a finite plan, the simplex ends with mass on
        # an infinite-cost arc, which is a solver fault, not an infinite cost
        monkeypatch.setattr(transport, "_feasible_on_finite", lambda a, b, finite: True)
        C = np.array([[1.0, math.inf], [2.0, math.inf]])
        with pytest.raises(InternalConsistencyError, match="infinite-cost arc"):
            emd([0.5, 0.5], [0.5, 0.5], C)

    def test_marginal_validation(self):
        with pytest.raises(ValidationError):
            emd([0.6, 0.6], [1.0], np.zeros((2, 1)))
        with pytest.raises(ValidationError):
            emd([1.0], [1.0], np.array([[-1.0]]))

    @pytest.mark.parametrize(
        "cost",
        [
            [[1.0, math.nan], [0.0, 1.0]],
            [[math.nan, math.inf], [0.0, 1.0]],
            [[0.0, -1e-300], [1.0, 0.0]],
            [[-math.inf, 0.0], [0.0, 0.0]],
        ],
    )
    def test_nan_and_negative_costs_raise(self, cost):
        with pytest.raises(ValidationError, match=r"^costs must be nonnegative \(inf allowed\)$"):
            emd([0.5, 0.5], [0.5, 0.5], np.array(cost))

    def test_negative_zero_cost_is_accepted(self):
        plan = emd([0.5, 0.5], [0.5, 0.5], np.array([[-0.0, 1.0], [1.0, -0.0]]))
        assert plan.cost == 0.0
        assert plan.weights.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    @staticmethod
    def _pivoting_instance():
        # real costs on uniform marginals: the least-cost start is not
        # optimal, so pivots reprice rows and columns of the cost matrix
        C = np.random.default_rng(5).uniform(0.0, 3.0, size=(12, 9))
        return np.full(12, 1.0 / 12), np.full(9, 1.0 / 9), C

    def test_read_only_costs_are_never_written(self, monkeypatch):
        replace_arc = transport._TreeBasis.replace_arc
        pivots = []
        monkeypatch.setattr(
            transport._TreeBasis, "replace_arc", lambda basis, *args: pivots.append(1) or replace_arc(basis, *args)
        )
        a, b, C = self._pivoting_instance()
        want = emd(a, b, C)
        frozen = C.copy()
        frozen.setflags(write=False)  # any write into it raises
        got, rc, _ = transport._emd_with_reduced_costs(a, b, frozen)
        assert pivots and frozen.tobytes() == C.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes() and got.cost == want.cost
        assert rc.flags.writeable and not np.shares_memory(rc, frozen)

    def test_a_transposed_view_is_never_written(self):
        a, b, C = self._pivoting_instance()
        base = np.ascontiguousarray(C.T)
        before = base.tobytes()
        got = emd(a, b, base.T)  # a column-major view of base, not a copy
        assert base.tobytes() == before
        want = emd(a, b, C)
        assert got.weights.tobytes() == want.weights.tobytes() and got.cost == want.cost

    @pytest.mark.parametrize("cost", [[[1.0, 2.0], [3.0, 4.0]], [[1.0, math.inf], [3.0, 4.0]]])
    @pytest.mark.parametrize("a", [[math.nan, 1.0], [math.nan, math.nan], [0.5, math.inf]])
    def test_non_finite_marginals_raise(self, a, cost):
        # NaN compares false with 0 and with the sum tolerance, so it needs its own check
        with pytest.raises(ValidationError, match="marginals must"):
            emd(a, [0.5, 0.5], np.array(cost))
        with pytest.raises(ValidationError, match="marginals must"):
            emd([0.5, 0.5], a, np.array(cost))


@st.composite
def cost_matrices(draw, square=True):
    """Cost matrix of 1-6 rows and columns (square if asked) with integer or
    real entries, some of them +inf."""
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 6))
    entry = st.integers(0, 20).map(float) if draw(st.booleans()) else st.floats(0.0, 10.0)
    C = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m)), float).reshape(n, m)
    inf_share = draw(st.sampled_from([0.0, 0.0, 0.3, 0.7]))
    if inf_share:
        u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * m, max_size=n * m))).reshape(n, m)
        C[u < inf_share] = math.inf
    return C


def assert_plan_has_its_marginals(plan):
    if math.isfinite(plan.cost):
        assert np.max(np.abs(plan.weights.sum(axis=1) - plan.row_marginals)) <= 1e-12
        assert np.max(np.abs(plan.weights.sum(axis=0) - plan.col_marginals)) <= 1e-12
    else:
        assert not plan.weights.any()


class TestEmdProperties:
    @settings(max_examples=300, deadline=None)
    @given(cost_matrices())
    @example(np.array([[0.0, 0.0], [0.0, 1e-11]]))  # an absolute tolerance gave 5e-12, not 0
    @example(np.full((2, 2), 5e-324))  # each 0.5 * 5e-324 underflowed, and the cost read 0
    def test_uniform_marginals_equal_the_assignment_optimum(self, C):
        n = C.shape[0]
        plan = emd(np.full(n, 1.0 / n), np.full(n, 1.0 / n), C)
        assert_plan_has_its_marginals(plan)
        # the simplex stops once every reduced cost is above -1e-11 * max C,
        # which bounds the cost above the optimum by that much for unit mass
        gap = 1e-11 * float(C[np.isfinite(C)].max(initial=0.0))
        try:
            rows, cols = scipy.optimize.linear_sum_assignment(C)
            want = float(C[rows, cols].sum()) / n
        except ValueError:  # scipy finds no assignment of finite cost
            want = math.inf
        if math.isinf(want):
            assert plan.cost == math.inf
        else:
            assert plan.cost == pytest.approx(want, rel=1e-12, abs=gap)
        if np.all(np.isfinite(C)):
            _, value = assignment_solve(C)
            assert plan.cost == pytest.approx(value / n, rel=1e-12, abs=gap)

    @settings(max_examples=300, deadline=None)
    @given(cost_matrices(square=False), st.data())
    def test_plans_reproduce_general_marginals(self, C, data):
        n, m = C.shape
        a = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), float)
        b = np.array(data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)), float)
        a[0] += 1.0  # some mass on each side; other entries may be 0
        b[-1] += 1.0
        assert_plan_has_its_marginals(emd(a / a.sum(), b / b.sum(), C))

    @settings(max_examples=200, deadline=None)
    @given(cost_matrices(square=False), st.integers(1, 200), st.booleans(), st.data())
    @example(np.array([[0.0, 0.0], [0.0, 1e-11]]), 1, True, None)
    def test_power_of_two_scaling_repeats_the_solve(self, C, k, uniform, data):
        # the optimality tolerance is relative to the costs, so scaling them
        # by 2^-k scales every reduced cost and the tolerance alike
        C = np.where(np.isfinite(C) & (C >= 2.0**-100), C, 0.0)
        n, m = C.shape
        if uniform:
            a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        else:
            a = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), float)
            b = np.array(data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)), float)
            a[0] += 1.0
            b[-1] += 1.0
            a, b = a / a.sum(), b / b.sum()
        want = emd(a, b, C)
        got = emd(a, b, C * 2.0**-k)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.cost == want.cost * 2.0**-k


def _max_flow_routes_everything(u, v, finite) -> bool:
    """scipy's integer max-flow: source -> rows (u), finite arcs (sum u),
    columns -> sink (v); True when it carries the whole of u."""
    n, m = finite.shape
    K = int(sum(u))
    source, sink = 0, n + m + 1
    edges = [(source, 1 + i, u[i]) for i in range(n) if u[i]]
    edges += [(1 + i, 1 + n + j, K) for i, j in zip(*np.nonzero(finite))]
    edges += [(1 + n + j, sink, v[j]) for j in range(m) if v[j]]
    tail, head, cap = (np.array(x, dtype=np.int32) for x in zip(*edges))
    graph = scipy.sparse.csr_matrix((cap, (tail, head)), shape=(sink + 1, sink + 1), dtype=np.int32)
    return scipy.sparse.csgraph.maximum_flow(graph, source, sink).flow_value == K


@st.composite
def screened_instances(draw):
    """Integer weights u, v summing to the same K and a finite-arc mask of
    1-8 rows and 1-8 columns: uniform square (u = v = 1) or general, with
    zero weights allowed."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        m = n
        u = v = [1] * n
    else:
        u = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        u[0] += 1
        K = sum(u)
        cuts = sorted(draw(st.lists(st.integers(0, K), min_size=m - 1, max_size=m - 1)))
        v = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, K])]
    share = draw(st.sampled_from([0.2, 0.4, 0.7]))
    grid = draw(st.lists(st.floats(0.0, 1.0), min_size=n * m, max_size=n * m))
    return u, v, np.array(grid).reshape(n, m) < share


@settings(max_examples=400, deadline=None)
@given(screened_instances())
def test_feasibility_screen_agrees_with_scipy_max_flow(instance):
    u, v, finite = instance
    K = sum(u)
    a, b = np.array(u, float) / K, np.array(v, float) / K
    assert transport._feasible_on_finite(a, b, finite) == _max_flow_routes_everything(u, v, finite)


def _bland_instance():
    """120 x 120 uniform(0, 1) costs on uniform marginals, all finite: a
    solve long enough (about 900 pivots) to reach runs of more than 50
    degenerate pivots, which switch the pricing to Bland's rule."""
    n = 120
    return np.full(n, 1.0 / n), np.full(n, 1.0 / n), np.random.default_rng(2).uniform(0.0, 1.0, size=(n, n))


@st.composite
def finite_start_instances(draw):
    """All-finite costs on 1-8 rows and 1-8 columns, tied small integers or
    reals, with marginals that may hold zero entries."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(0, 3).map(float) if draw(st.booleans()) else st.floats(0.0, 10.0)
    C = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m)), float).reshape(n, m)
    weight = st.one_of(st.just(0.0), st.integers(1, 5).map(float), st.floats(1e-3, 1.0))
    a = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(weight, min_size=m, max_size=m)))
    a[draw(st.integers(0, n - 1))] += 1.0  # some mass on each side
    b[draw(st.integers(0, m - 1))] += 1.0
    return a / a.sum(), b / b.sum(), C


# costs drawn from a few values, so that ties are common: -0.0 beside 0.0,
# small integers, subnormals and doubles near the largest
_TIED_COSTS = [
    0.0, -0.0, 1.0, 2.0, 3.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, 1.7976931348623155e308
]


@st.composite
def tied_cost_matrices(draw):
    """1-9 rows and columns (1 x 1, 1 x m and n x 1 included) of costs
    drawn from ``_TIED_COSTS`` or from all finite nonnegative doubles,
    row-major or as a column-major (transposed) view."""
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    pool = st.sampled_from(_TIED_COSTS[: draw(st.integers(2, len(_TIED_COSTS)))])
    entry = draw(st.sampled_from([pool, st.floats(0.0, allow_infinity=False)]))
    C = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m)), float).reshape(n, m)
    return np.ascontiguousarray(C.T).T if draw(st.booleans()) else C


class TestLeastCostStart:
    @settings(max_examples=400, deadline=None)
    @given(tied_cost_matrices())
    @example(np.zeros((1, 1)))
    @example(np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]]))
    @example(np.asfortranarray([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    def test_order_is_the_stable_argsort(self, C):
        want = np.argsort(C, axis=None, kind="stable")
        got = transport._least_cost_order(C)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "C",
        [
            np.random.default_rng(1).integers(0, 4, size=(200, 150)).astype(float),  # long runs of ties
            np.random.default_rng(2).uniform(size=(150, 200)).round(2).T,  # column-major, some ties
            np.where(np.random.default_rng(3).uniform(size=(120, 90)) < 0.5, -0.0, 0.0),
        ],
        ids=["integers", "transposed-rounded", "signed-zeros"],
    )
    def test_order_is_the_stable_argsort_on_large_matrices(self, C):
        # numpy's unstable sort scatters long runs of ties; the runs must be
        # put back in flat-index order
        want = np.argsort(C, axis=None, kind="stable")
        assert transport._least_cost_order(C).tolist() == want.tolist()

    @settings(max_examples=400, deadline=None)
    @given(finite_start_instances())
    def test_start_is_a_spanning_tree_that_carries_both_marginals(self, instance):
        a, b, C = instance
        n, m = C.shape
        basis = transport._initial_basis(a, b, C)
        assert len(basis.arcs) == n + m - 1
        assert len(basis.moved) == n + m  # rebuild reached every node from the root
        assert basis.moved[0] == n - 1 and basis.parent[n - 1] == -1  # the last row is the root
        rows = np.zeros(n)
        cols = np.zeros(m)
        for (f, t, c), x in zip(basis.arcs, basis.flows):
            assert 0 <= f < n <= t < n + m and c == C[f, t - n]
            assert x >= 0.0
            rows[f] += x
            cols[t - n] += x
        assert np.max(np.abs(rows - a)) <= 1e-12
        assert np.max(np.abs(cols - b)) <= 1e-12

    def test_infinite_cells_take_the_big_m(self, monkeypatch):
        # with +inf entries the start is the least-cost basis of the working
        # costs, +inf replaced by the big M; at the start and after the last
        # pivot the tree has n + m - 1 arcs, each costed on those costs
        initial_basis, starts = transport._initial_basis, []

        def kept(a, b, Cw):
            basis = initial_basis(a, b, Cw)
            starts.append((Cw, list(basis.arcs), basis))
            return basis

        monkeypatch.setattr(transport, "_initial_basis", kept)
        solved = 0
        for a, b, C in seeded_emd_instances():
            finite = np.isfinite(C)
            if finite.all():
                continue
            starts.clear()
            plan = emd(a, b, C)
            if plan.cost == math.inf:
                assert starts == []  # the screen answered
                continue
            [(Cw, arcs, final)] = starts
            n, m = C.shape
            big_m = 4.0 * max(C[finite].max(initial=0.0), 1.0) * (n + m)
            assert Cw.tobytes() == np.where(finite, C, big_m).tobytes()
            for tree_arcs in (arcs, final.arcs):
                assert len(tree_arcs) == n + m - 1
                assert all(f < n <= t < n + m and c == Cw[f, t - n] for f, t, c in tree_arcs)
            solved += 1
        assert solved > 50

    def test_cheapest_cells_first_ties_by_row_then_column(self):
        # the four zeros are visited in row-major order, (0, 1) first, and
        # the costly corner (0, 0) is never taken
        C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        basis = transport._initial_basis(np.array([0.5, 0.5]), np.array([0.25, 0.5, 0.25]), C)
        assert basis.arcs == [(0, 3, 0.0), (1, 2, 0.0), (1, 3, 0.0), (1, 4, 1.0)]
        assert basis.flows == [0.5, 0.25, 0.0, 0.25]

    def test_oracle_lps_take_no_pivot(self, monkeypatch):
        # the two LPs of the benchmark's oracle operation (324^2 and 361^2
        # cells): the start is already optimal, and the values are pinned
        replace_arc = transport._TreeBasis.replace_arc
        pivots = []
        monkeypatch.setattr(
            transport._TreeBasis, "replace_arc", lambda basis, *args: pivots.append(1) or replace_arc(basis, *args)
        )
        assert [exact_oracle_discrete(*lp) for lp in ORACLE_LPS] == ORACLE_VALUES
        assert pivots == []


class TestNetworkSimplexTree:
    def test_plans_and_costs_match_the_pinned_hash(self):
        # computed with the tree rooted at the last row and its flows
        # re-derived in a stable leaf order
        assert emd_digests() == PLAN_DIGESTS

    def test_incremental_tree_equals_a_rebuilt_tree_after_every_pivot(self, monkeypatch):
        replace_arc = transport._TreeBasis.replace_arc
        pivots = []

        def checked(basis, leave, arc, inner):
            replace_arc(basis, leave, arc, inner)
            fresh = transport._TreeBasis(basis.n, basis.m, list(basis.arcs), list(basis.flows))
            for name in ("parent", "parent_arc", "depth", "pot"):
                got, want = np.asarray(getattr(basis, name)), np.asarray(getattr(fresh, name))
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            pivots.append(leave)

        monkeypatch.setattr(transport._TreeBasis, "replace_arc", checked)
        for k, (a, b, C) in enumerate(seeded_emd_instances()):
            if k % 5 == 0 or k >= 298:
                emd(a, b, C)
        emd(*_bland_instance())
        assert len(pivots) > 1000

    def test_maintained_reduced_costs_equal_a_full_pass_after_every_pivot(self, monkeypatch):
        reprice = transport._reprice
        branches = {"rows and columns": 0, "full pass": 0}

        def checked(rc, Cw, pot, moved):
            reprice(rc, Cw, pot, moved)
            n, m = rc.shape
            want = (Cw - pot[:n, None]) + pot[None, n : n + m]
            assert rc.tobytes() == want.tobytes()
            if len(moved) <= n + m:  # a pivot's subtree never holds the root
                branches["full pass" if 4 * len(moved) > n + m else "rows and columns"] += 1

        monkeypatch.setattr(transport, "_reprice", checked)
        for k, (a, b, C) in enumerate(seeded_emd_instances()):
            if k % 10 == 0 or k >= 298:
                emd(a, b, C)
        n = 60
        band = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool)
        emd(np.full(n, 1.0 / n), np.full(n, 1.0 / n), np.where(band.T, 1.0, math.inf))
        assert min(branches.values()) > 50, branches

    def test_long_degenerate_runs_switch_to_blands_rule(self, monkeypatch):
        # the most negative reduced cost enters, except under Bland's rule,
        # where the first negative one (beyond the tolerance) does; the
        # solver's reduced costs are read where it reprices them
        a, b, C = _bland_instance()
        opt_eps = transport._OPT_REL * C.max()
        reprice, cycle = transport._reprice, transport._TreeBasis.cycle
        held, entering = [], {"most negative": 0, "first negative": 0}

        def kept(rc, *args):
            held[:] = [rc.ravel()]
            reprice(rc, *args)

        def priced(basis, fi, ti):
            flat = held[0]
            k = fi * basis.m + ti - basis.n
            if flat[k] == flat.min():
                entering["most negative"] += 1
            else:
                assert k == int(np.argmax(flat < -opt_eps))
                entering["first negative"] += 1
            return cycle(basis, fi, ti)

        monkeypatch.setattr(transport, "_reprice", kept)
        monkeypatch.setattr(transport._TreeBasis, "cycle", priced)
        plan = emd(a, b, C)
        assert entering["first negative"] > 100 and entering["most negative"] > 100, entering
        rows, cols = scipy.optimize.linear_sum_assignment(C)
        assert plan.cost == pytest.approx(C[rows, cols].sum() / C.shape[0], abs=1e-12)

    def test_memory_layout_does_not_change_the_plan(self):
        # a column-major cost matrix (for instance a transposed mask) must
        # give the bytes of its row-major copy
        for k, (a, b, C) in enumerate(seeded_emd_instances()):
            if k % 9 == 0 or k == 298:
                want = emd(a, b, C)
                for layout in (np.asfortranarray(C), np.ascontiguousarray(C.T).T):
                    got = emd(a, b, layout)
                    assert got.weights.tobytes() == want.weights.tobytes()
                    assert struct.pack("<d", got.cost) == struct.pack("<d", want.cost)
        n = 60
        band = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool)
        plan = emd(np.full(n, 1.0 / n), np.full(n, 1.0 / n), np.where(band.T, 1.0, math.inf))
        assert plan.cost == pytest.approx(1.0, abs=1e-12)

    def test_rebuild_runs_once_per_solve(self, monkeypatch):
        rebuild = transport._TreeBasis.rebuild
        calls = []

        def counted(basis):
            calls.append(basis)
            rebuild(basis)

        monkeypatch.setattr(transport._TreeBasis, "rebuild", counted)
        solves = 0
        for k, (a, b, C) in enumerate(seeded_emd_instances()):
            if k % 7 == 0 or k == 299:
                calls.clear()
                plan = emd(a, b, C)
                if np.isfinite(plan.cost) or np.isfinite(C).all():
                    assert len(calls) == 1
                    solves += 1
        assert solves > 30

    def test_entering_arc_inside_the_cut_subtree_is_rejected(self):
        # tree: root row 1 - col 2 - row 0; replacing arc (1, 2) by (0, 2)
        # would leave the subtree {2, 0} cut off from the root
        basis = transport._TreeBasis(2, 1, [(0, 2, 1.0), (1, 2, 0.0)], [0.5, 0.5])
        assert basis.parent == [2, -1, 1]
        with pytest.raises(InternalConsistencyError):
            basis.replace_arc(1, (0, 2, 2.0), 0)
        assert basis.parent[2] == 1  # rejected on reaching col 2 again, before re-orienting it


# run in a child process: the pinned values, and the features that stayed on
# of those NPY_DISABLE_CPU_FEATURES names
_PINNED_IN_A_CHILD = """
import importlib, json, os, sys
import conftest, ppt
umath = importlib.import_module(sys.argv[1])
on = [f for f in os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split() if umath.__cpu_features__[f]]
oracle = [ppt.exact_oracle_discrete(*lp) for lp in json.loads(sys.argv[2])]
reports = {s: conftest.report_digest(*conftest.pinned_verify_reports(s)) for s in conftest.PINNED_VERIFY}
print(json.dumps([oracle, conftest.emd_digests(), reports, on]))
"""


class TestSameBytesOnEveryCpu:
    def test_oracle_and_plans_hold_at_every_dispatch_level(self):
        # numpy picks its SIMD kernels at run time, by CPU.  A child process
        # with NPY_DISABLE_CPU_FEATURES set to a suffix of the dispatch list
        # runs at a lower level, as on an older CPU; OPENBLAS_CORETYPE picks
        # OpenBLAS's kernels where numpy's BLAS reads it.  The default level
        # is this process's, pinned by the two tests above and by the
        # verify report digests of TestPinnedReportBytes
        umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath  # numpy 2 and 1
        dispatch = getattr(umath, "__cpu_dispatch__", None)
        if dispatch is None:
            pytest.skip("numpy does not expose its dispatch list")
        have = [f for f in dispatch if umath.__cpu_features__.get(f)]  # lowest first
        # at most four levels: the top quarter of the features off, ..., all
        cuts = sorted({round(k * len(have) / 4) for k in range(1, 5)} - {0})
        levels = [{"NPY_DISABLE_CPU_FEATURES": " ".join(have[-k:])} for k in cuts]
        levels += [{"OPENBLAS_CORETYPE": core} for core in ("Haswell", "Prescott")]
        paths = [str(pathlib.Path(ppt.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        reports = {scenario: pin[-1] for scenario, pin in PINNED_VERIFY.items()}

        def pinned(level):
            env = {**os.environ, **level, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
            args = [sys.executable, "-c", _PINNED_IN_A_CHILD, umath.__name__, json.dumps(ORACLE_LPS)]
            done = subprocess.run(
                args, cwd=pathlib.Path(__file__).parent, env=env, capture_output=True, text=True, timeout=300
            )
            assert done.returncode == 0, (level, done.stderr)
            return json.loads(done.stdout)

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            for level, got in zip(levels, pool.map(pinned, levels)):
                assert got == [ORACLE_VALUES, PLAN_DIGESTS, reports, []], level


class TestEmpiricalEstimates:
    def test_identical_samples_give_zero(self, unit_window):
        samples = [config([[0.1 * (i + 1)]], unit_window) for i in range(6)]
        est = estimate_rubinstein_empirical(samples, list(samples), "rho1")
        assert est.mean == 0.0

    def test_rho0_bounded_by_one(self, lebesgue, seed):
        mu = poisson_batch_with_rng(lebesgue, 12, seed.rng())
        nu = poisson_batch_with_rng(lebesgue, 12, ppt.SeedSpec(1, 1).rng())
        est = estimate_rubinstein_empirical(mu, nu, "rho0")
        assert 0.0 <= est.mean <= 1.0

    def test_rho2_mismatched_counts_give_infinity(self, unit_window):
        mu = [config([[0.5]], unit_window) for _ in range(3)]
        nu = [config([[0.25], [0.75]], unit_window) for _ in range(3)]
        est = estimate_rubinstein_empirical(mu, nu, "rho2")
        assert est.mean == math.inf

    def test_unknown_metric(self, unit_window):
        a = [config([[0.5]], unit_window)]
        with pytest.raises(ValidationError):
            estimate_rubinstein_empirical(a, a, "rho7")

    def test_doubling_diagnostic_fields(self, lebesgue, seed):
        mu = poisson_batch_with_rng(lebesgue, 8, seed.rng())
        nu = poisson_batch_with_rng(lebesgue, 8, ppt.SeedSpec(2, 1).rng())
        diag = doubling_diagnostic(mu, nu, "rho1")
        assert set(diag) == {"n_half", "n_full", "estimate_half", "estimate_full", "gap"}


class TestDualLowerBound:
    def test_constant_witness_gives_zero(self, lebesgue, seed):
        mu = poisson_batch_with_rng(lebesgue, 10, seed.rng())
        est = dual_lower_bound(lambda w: 1.0, mu, mu)
        assert est.mean == 0.0

    def test_weak_duality_against_primal(self, lebesgue, seed):
        from ppt.cli import parse_density_expr

        coupling = ppt.SuperpositionCoupling(lebesgue, parse_density_expr("const:2"), p_sup=2.0)
        pairs = coupling.sample_batch(60, seed)
        mu = [c.left for c in pairs]
        nu = [c.right for c in pairs]
        primal = estimate_rubinstein_empirical(mu, nu, "rho1")
        dual = dual_lower_bound(lambda w: float(w.n), mu, nu)
        assert dual.mean <= primal.mean + 3 * (dual.std_error + primal.std_error)


class TestDualFromValues:
    def test_equals_dual_lower_bound_field_for_field(self, seed):
        sigma = ppt.IntensityMeasure.uniform(ppt.Window([0.0, 0.0], [1.0, 2.0]), 1.5)
        mu = poisson_batch_with_rng(sigma, 300, seed.rng())
        nu = poisson_batch_with_rng(sigma.scaled(2.0), 250, ppt.SeedSpec(1, 1).rng())
        want = dual_lower_bound(lambda w: float(w.n), mu, nu)
        got = transport.dual_from_values(
            np.array([w.n for w in mu]), np.array([w.n for w in nu])
        )
        assert got.to_dict() == want.to_dict()
        assert struct.pack("<2d", got.mean, got.std_error) == struct.pack(
            "<2d", want.mean, want.std_error
        )

    def test_single_values_have_zero_error(self):
        est = transport.dual_from_values(np.array([1.0]), np.array([4.0]))
        assert (est.mean, est.std_error, est.n_samples) == (3.0, 0.0, 2)

    @pytest.mark.parametrize("f_mu, f_nu", [([], [1.0]), ([1.0], [])])
    def test_empty_side_raises(self, f_mu, f_nu):
        with pytest.raises(ValidationError):
            transport.dual_from_values(np.array(f_mu), np.array(f_nu))
        with pytest.raises(ValidationError):  # F is not called on an empty list
            dual_lower_bound(float, f_mu, f_nu)


class TestExactOracle:
    def test_identical_masses(self):
        assert exact_oracle_discrete([1.0], [1.0], 30) == pytest.approx(0.0, abs=1e-12)

    def test_one_cell_mean_gap(self):
        got = exact_oracle_discrete([1.0], [2.0], 60)
        assert got == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_one_cell_matches_mean_gap_grid(self, a, b):
        got = exact_oracle_discrete([a], [b], 40)
        assert got == pytest.approx(abs(a - b), abs=1e-8)

    def test_two_cells_separable(self):
        got = exact_oracle_discrete([1.0, 1.0], [2.0, 1.0], 18)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            exact_oracle_discrete([1.0], [2.0], 3)

    @pytest.mark.parametrize("truncation", [30.5, math.nan, math.inf, -math.inf, "30", 0, -2.0])
    def test_a_truncation_that_is_not_a_whole_number_from_one_up_raises(self, truncation):
        # 30.5 was solved as truncation 31, and NaN reached numpy's arange
        message = f"truncation must be a whole number >= 1, got {truncation!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            exact_oracle_discrete([1.0], [2.0], truncation)

    def test_a_whole_float_truncation_is_the_integer_one(self):
        want = 0.9999999999999998
        for truncation in (30, 30.0, np.float64(30.0), np.int64(30)):
            assert struct.pack("<d", exact_oracle_discrete([1.0], [2.0], truncation)) == struct.pack("<d", want)
        assert exact_oracle_discrete([0.0], [2.0], 30.0) == exact_oracle_discrete([0.0], [2.0], 30)

    @pytest.mark.parametrize(
        "mu, nu", [([math.nan], [1.0]), ([1.0], [math.inf]), ([1.0, math.inf], [1.0, 1.0]), ([1.0, 1.0], [math.nan, 1.0])]
    )
    def test_non_finite_masses_raise(self, mu, nu):
        with pytest.raises(ValidationError, match="finite"):
            exact_oracle_discrete(mu, nu, 20)

    def test_cell_count_guard(self):
        with pytest.raises(ValidationError):
            exact_oracle_discrete([1.0] * 3, [1.0] * 3, 10)

    @pytest.mark.parametrize(
        "mu, nu, truncation", [([1.0], [2.0], 30), ([0.5, 0.5], [1.0, 1.0], 17), ([1.0, 0.5], [2.0, 1.5], 18)]
    )
    def test_cost_matrix_equals_the_integer_l1_matrix(self, monkeypatch, mu, nu, truncation):
        seen = []
        monkeypatch.setattr(transport, "emd", lambda a, b, C: seen.append(C) or emd(a, b, C))
        exact_oracle_discrete(mu, nu, truncation)
        grids = np.meshgrid(*[np.arange(truncation + 1)] * len(mu), indexing="ij")
        states = np.stack([g.ravel() for g in grids], axis=1)
        want = np.abs(states[:, None, :] - states[None, :, :]).sum(axis=2).astype(float)
        assert len(seen) == 1 and seen[0].shape == want.shape and seen[0].tobytes() == want.tobytes()

    def test_an_oversized_lp_is_rejected_before_anything_is_built(self, monkeypatch):
        # 151^2 = 22801 count vectors a side would need a 22801^2 cost matrix
        # (over 4 GB), although the truncation keeps the neglected mass small
        def never(*args):
            raise AssertionError("the oracle started building its LP")

        monkeypatch.setattr(concentration, "poisson_pmf", never)
        monkeypatch.setattr(transport, "emd", never)
        with pytest.raises(ValidationError, match="22801 x 22801 count vectors"):
            exact_oracle_discrete([50.0, 50.0], [50.0, 50.0], 150)
        with pytest.raises(ValidationError, match="2049 x 2049 count vectors"):
            exact_oracle_discrete([1.0], [2.0], 2048)

    def test_size_limit_counts_cost_cells(self, monkeypatch):
        monkeypatch.setattr(transport, "_ORACLE_MAX_CELLS", 19**4)  # the benchmark's larger LP
        assert abs(exact_oracle_discrete([1.0, 0.5], [2.0, 1.5], 18) - 2.0) <= 1e-8
        with pytest.raises(ValidationError, match="400 x 400"):
            exact_oracle_discrete([1.0, 0.5], [2.0, 1.5], 19)
