import hashlib
import math
import struct

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
from ppt import transport
from ppt.errors import InternalConsistencyError, TruncationError, ValidationError
from ppt.simulate import poisson_batch_with_rng

from conftest import brute_force_assignment, config


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
        # search exceeded Python's recursion limit on these.  The full emd
        # call runs the network simplex for minutes, so the check stops at
        # the pre-screen that emd runs first.
        from ppt.transport import _feasible_on_finite

        n = 1500
        band = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool)
        w = np.full(n, 1.0 / n)
        assert _feasible_on_finite(w, w, band.T)
        assert _feasible_on_finite(w, w, band)
        # the last row moved to the first column: its augmenting path runs
        # through every other row, and fails at the end once the last column
        # is cut off
        shifted = band.copy()
        shifted[n - 1, n - 1] = False
        shifted[n - 1, 0] = True
        assert _feasible_on_finite(w, w, shifted)
        shifted[n - 2, n - 1] = False
        assert not _feasible_on_finite(w, w, shifted)

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

    def test_mass_left_on_an_artificial_arc_raises(self, monkeypatch):
        # only the feasibility screen may answer +inf: when it lets through
        # an instance without a finite plan, the simplex ends with mass on
        # an artificial arc, which is a solver fault, not an infinite cost
        monkeypatch.setattr(transport, "_feasible_on_finite", lambda a, b, finite: True)
        C = np.array([[1.0, math.inf], [2.0, math.inf]])
        with pytest.raises(InternalConsistencyError):
            emd([0.5, 0.5], [0.5, 0.5], C)

    def test_marginal_validation(self):
        with pytest.raises(ValidationError):
            emd([0.6, 0.6], [1.0], np.zeros((2, 1)))
        with pytest.raises(ValidationError):
            emd([1.0], [1.0], np.array([[-1.0]]))

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


def _seeded_emd_instances():
    """300 seeded instances: integer, real and partly infinite costs, on
    uniform square and on general marginals (some with zero entries)."""
    rng = ppt.SeedSpec(20_250_808).rng(9)
    for k in range(300):
        if k >= 298:
            # 80 x 80, 0/1 costs, half the arcs infinite: long degenerate
            # runs that switch the pricing to Bland's rule
            n = 80
            C = rng.integers(0, 2, size=(n, n)).astype(float)
            C[rng.uniform(size=(n, n)) < 0.5] = math.inf
            np.fill_diagonal(C, 1.0)
            yield np.full(n, 1.0 / n), np.full(n, 1.0 / n), C
            continue
        kind = k % 6
        big = k % 25 == 0
        if kind < 3:
            n = m = int(rng.integers(30, 41)) if big else int(rng.integers(1, 13))
            a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        else:
            n, m = (int(v) for v in rng.integers(1, 11, size=2))
            a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            if n > 2 and kind == 5:
                a[: n // 3] = 0.0
                a /= a.sum()
        if kind % 3 == 0:
            C = rng.integers(0, 5, size=(n, m)).astype(float)
        else:
            C = rng.uniform(0, 3, size=(n, m))
        if kind % 3 == 2:
            C[rng.uniform(size=(n, m)) < 0.35] = math.inf
        yield a, b, C


class TestNetworkSimplexTree:
    def test_plans_and_costs_match_the_pinned_hash(self):
        # SHA-256 of every plan's bytes and cost, computed with the solver
        # that rebuilt its spanning tree from scratch after each pivot
        h = hashlib.sha256()
        for a, b, C in _seeded_emd_instances():
            plan = emd(a, b, C)
            h.update(plan.weights.tobytes())
            h.update(struct.pack("<d", plan.cost))
        assert h.hexdigest() == "ad7a9608cc411a2ee1b7b8e7aeb208d1a8ad9aa8086ad062d75b492234300c72"

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
        for k, (a, b, C) in enumerate(_seeded_emd_instances()):
            if k % 5 == 0 or k >= 298:
                emd(a, b, C)
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
        for k, (a, b, C) in enumerate(_seeded_emd_instances()):
            if k % 10 == 0 or k >= 298:
                emd(a, b, C)
        n = 60
        band = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool)
        emd(np.full(n, 1.0 / n), np.full(n, 1.0 / n), np.where(band.T, 1.0, math.inf))
        assert min(branches.values()) > 50, branches

    def test_memory_layout_does_not_change_the_plan(self):
        # a column-major cost matrix (for instance a transposed mask) must
        # give the bytes of its row-major copy
        for k, (a, b, C) in enumerate(_seeded_emd_instances()):
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
        for k, (a, b, C) in enumerate(_seeded_emd_instances()):
            if k % 7 == 0 or k == 299:
                calls.clear()
                plan = emd(a, b, C)
                if np.isfinite(plan.cost) or np.isfinite(C).all():
                    assert len(calls) == 1
                    solves += 1
        assert solves > 30

    def test_entering_arc_inside_the_cut_subtree_is_rejected(self):
        # tree: root 2 - row 0 - col 1; replacing arc (0, root) by (0, 1)
        # would leave the subtree {0, 1} cut off from the root
        basis = transport._TreeBasis(1, 1, [(0, 1, 1.0), (0, 2, 0.0)], [1.0, 0.0])
        with pytest.raises(InternalConsistencyError):
            basis.replace_arc(1, (0, 1, 2.0), 0)


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

    @pytest.mark.parametrize(
        "mu, nu", [([math.nan], [1.0]), ([1.0], [math.inf]), ([1.0, math.inf], [1.0, 1.0]), ([1.0, 1.0], [math.nan, 1.0])]
    )
    def test_non_finite_masses_raise(self, mu, nu):
        with pytest.raises(ValidationError, match="finite"):
            exact_oracle_discrete(mu, nu, 20)

    def test_cell_count_guard(self):
        with pytest.raises(ValidationError):
            exact_oracle_discrete([1.0] * 3, [1.0] * 3, 10)
