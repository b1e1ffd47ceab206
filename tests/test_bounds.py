import math
from collections import Counter

import numpy as np
import pytest

import ppt
from ppt import (
    ConstantMixer,
    IntensityMeasure,
    SeedSpec,
    TimeChangeSpec,
    TwoPointMixer,
    Window,
    bound_tv_cox,
    bound_tv_general,
    bound_tv_gibbs,
    bound_tv_poisson,
    bound_w2_halfline,
    bound_w2_timechange,
    gibbs_density,
    gibbs_normalization_series,
    poisson_density,
)
from ppt.cli import parse_density_expr
from ppt.errors import ValidationError

from test_simulate import rational_timechange


class TestPoissonBound:
    def test_identity_density_gives_zero(self, lebesgue):
        assert bound_tv_poisson(parse_density_expr("const:1"), lebesgue).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_constant_two(self, lebesgue):
        assert bound_tv_poisson(parse_density_expr("const:2"), lebesgue).value == pytest.approx(
            1.0, rel=1e-10
        )

    def test_linear_density_analytic(self):
        # oracle: integral of |x - 1| over [0, 2] equals 1
        w = Window([0.0], [2.0])
        leb = IntensityMeasure.uniform(w, 1.0)
        got = bound_tv_poisson(parse_density_expr("poly:0,1"), leb)
        assert got.value == pytest.approx(1.0, rel=1e-9)
        assert got.method == "quadrature"

    @pytest.mark.parametrize("dim", [2, 3])
    def test_kink_across_the_window(self, dim):
        # oracle: integral of |2 x0 - 1| over the unit square or cube is 1/2
        leb = IntensityMeasure.uniform(Window([0.0] * dim, [1.0] * dim), 1.0)
        got = bound_tv_poisson(parse_density_expr("poly:0,2"), leb)
        assert got.value == pytest.approx(0.5, rel=1e-9)

    def test_monotone_in_pointwise_domination(self, lebesgue):
        values = [
            bound_tv_poisson(parse_density_expr(f"const:{1 + c}"), lebesgue).value
            for c in (0.0, 0.25, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestCoxBound:
    def test_degenerate_mixer(self, lebesgue, seed):
        got = bound_tv_cox(lebesgue, ConstantMixer(1.0), 100, seed)
        assert got.value == 0.0

    def test_two_point_mixer(self, unit_window, seed):
        base = IntensityMeasure.uniform(unit_window, 2.0)
        got = bound_tv_cox(base, TwoPointMixer(0.5, 1.5), 40_000, seed)
        assert abs(got.value - 1.0) <= 3.0 * got.std_error + 1e-12
        assert got.method == "monte_carlo" and got.n_samples == 40_000

    def test_zero_mass(self, unit_window, seed):
        zero = IntensityMeasure.uniform(unit_window, 0.0)
        got = bound_tv_cox(zero, TwoPointMixer(0.5, 1.5), 100, seed)
        assert got.value == 0.0


class TestGibbsBound:
    def test_zero_potential(self, lebesgue):
        assert bound_tv_gibbs(parse_density_expr("const:0"), lebesgue).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_constant_potential(self, unit_window):
        # factoring constants: 2 c m^2
        sigma = IntensityMeasure.uniform(unit_window, 2.0)
        got = bound_tv_gibbs(parse_density_expr("const:0.3"), sigma)
        assert got.value == pytest.approx(2 * 0.3 * 4.0, rel=1e-10)

    def test_exponential_potential_kinked_on_the_diagonal(self, unit_window):
        # oracle: 2 * 10^2 times the integral of e^{-|x - y|} over [0, 1]^2, 2/e
        sigma = IntensityMeasure.uniform(unit_window, 10.0)
        got = bound_tv_gibbs(lambda z: np.exp(-np.abs(z[..., 0])), sigma)
        assert got.value == pytest.approx(400.0 / math.e, rel=1e-8)

    def test_gaussian_kernel_against_mc_oracle(self, lebesgue):
        # Monte Carlo integration oracle with 1e7 uniform pairs
        def phi(z):
            z = np.asarray(z, float)
            return np.exp(-(z[..., 0] ** 2))

        got = bound_tv_gibbs(phi, lebesgue)
        rng = np.random.default_rng(424242)
        x = rng.uniform(size=10_000_000)
        y = rng.uniform(size=10_000_000)
        vals = np.exp(-((x - y) ** 2))
        mc = 2.0 * float(vals.mean())
        mc_se = 2.0 * float(vals.std(ddof=1)) / math.sqrt(vals.size)
        assert abs(got.value - mc) <= 4.0 * mc_se + 1e-6  # 4-digit agreement

    @staticmethod
    def exact_count_law_rho1(phi, sigma):
        """W_rho1 between Poisson(sigma) and the Gibbs law the samplers draw,
        for a constant ``phi`` on a window of mass 1.

        The energy then depends on the atom count alone, so both laws are
        i.i.d. uniform given the count; the count is 1-Lipschitz for rho1 and
        nesting the smaller configuration in the larger attains |N - M|, so
        W_rho1 is the W1 distance of the count laws, sum_k |F_P(k) - F_G(k)|.
        """
        ks = range(60)
        poisson = np.array([math.exp(-1.0) / math.factorial(k) for k in ks])
        energy = np.array(
            [ppt.interaction_energy(phi, ppt.Configuration(np.full((k, 1), 0.5), sigma.window)) for k in ks]
        )
        gibbs = poisson * np.exp(-energy)
        gibbs /= gibbs.sum()
        return float(np.abs(np.cumsum(poisson) - np.cumsum(gibbs)).sum())

    def test_exact_count_law_rho1_of_the_gibbs_law(self, lebesgue):
        # the energy of k atoms is 0.05 k(k-1)
        got = self.exact_count_law_rho1(parse_density_expr("const:0.05"), lebesgue)
        assert got == pytest.approx(0.0838040501545, abs=1e-12)
        assert ppt.gibbs_count_law_rho1(0.05, 1.0) == pytest.approx(got, abs=1e-12)

    def test_bound_dominates_the_exact_count_law_rho1(self, lebesgue):
        phi = parse_density_expr("const:0.05")
        assert self.exact_count_law_rho1(phi, lebesgue) <= bound_tv_gibbs(phi, lebesgue).value

    def test_count_law_rho1_edges(self):
        assert ppt.gibbs_count_law_rho1(0.0, 3.0) == pytest.approx(0.0, abs=1e-15)  # the laws agree
        assert ppt.gibbs_count_law_rho1(0.5, 0.0) == 0.0  # both laws are the empty configuration
        # a hard core allows at most one atom: the Gibbs count law is {0: 1/2, 1: 1/2}, so
        # sum_k |F_P(k) - F_G(k)| = (1/2 - 1/e) + (1 - 2/e) + (3/e - 1) = 1/2
        assert ppt.gibbs_count_law_rho1(math.inf, 1.0) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValidationError):  # the Poisson pmf underflows to 0
            ppt.gibbs_count_law_rho1(0.05, 1000.0)

    def test_normalization_series_raises_rather_than_truncate(self):
        # c = 0 means V = 0, so E exp(-V) = 1 whenever the series holds the mass
        assert gibbs_normalization_series(0.0, 200.0) == pytest.approx(1.0, abs=1e-12)
        assert gibbs_normalization_series(0.05, 1.0) == pytest.approx(0.95728, abs=5e-6)
        # a hard core (c = inf) accepts exactly the configurations of at most one atom
        assert gibbs_normalization_series(math.inf, 1.0) == pytest.approx(2.0 / math.e, rel=1e-15)
        for mass in (350.0, 1000.0):  # the first 400 counts miss 0.5% and all of the mass
            with pytest.raises(ValidationError, match="too large"):
                gibbs_normalization_series(0.0, mass)
        for c, mass in ((math.nan, 1.0), (0.05, math.nan)):
            with pytest.raises(ValidationError):
                gibbs_normalization_series(c, mass)


class TestHalflineBound:
    def test_zero_change(self):
        tc = TimeChangeSpec(
            U=lambda t: np.zeros_like(np.asarray(t, float)),
            U_prime=lambda t: np.zeros_like(np.asarray(t, float)),
            horizon=3.0,
        )
        assert bound_w2_halfline(tc).value == 0.0

    def test_rational_decay_analytic(self):
        # oracle: integral of t^2/(1+t^3)^2 over the half-line is 1/3
        got = bound_w2_halfline(rational_timechange(horizon=100.0))
        assert got.value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
        assert got.details["truncation_tail_estimate"] < 1e-6

    def test_scaling_homogeneity(self):
        base = bound_w2_halfline(rational_timechange(scale=1.0)).value
        assert bound_w2_halfline(rational_timechange(scale=0.5)).value == pytest.approx(
            0.5 * base, rel=1e-9
        )
        # norm homogeneity carries the absolute value for sign flips
        assert bound_w2_halfline(rational_timechange(scale=-0.5)).value == pytest.approx(
            0.5 * base, rel=1e-9
        )


class TestGeneralBound:
    def test_constant_density_gives_zero(self, lebesgue, seed):
        got = bound_tv_general(lambda w: 1.0, lebesgue, 200, seed, inner_samples=8)
        assert got.value == 0.0

    def test_poisson_density_recovers_quadrature_bound(self, lebesgue):
        L = poisson_density(parse_density_expr("const:2"), lebesgue)
        got = bound_tv_general(L, lebesgue, 3000, SeedSpec(21), inner_samples=32)
        assert abs(got.value - 1.0) <= 3.0 * got.std_error
        assert abs(got.details["normalization_mean"] - 1.0) <= 4.0 * got.details[
            "normalization_std_error"
        ]

    def test_gibbs_density_off_diagonal_dominated_by_closed_form(self, lebesgue):
        # with the off-diagonal energy the linearisation chain gives
        # E int |grad L| <= 2 double-integral of phi, here 0.1
        phi = parse_density_expr("const:0.05")
        z = gibbs_normalization_series(0.05, 1.0)
        L = gibbs_density(phi, lebesgue, z)
        got = bound_tv_general(L, lebesgue, 3000, SeedSpec(22), inner_samples=32)
        closed = bound_tv_gibbs(phi, lebesgue).value
        assert got.value <= closed + 3.0 * got.std_error

    def test_gibbs_density_matches_series_oracle(self, lebesgue):
        # independent series oracle for E int |grad L| with V(k) = c k(k-1):
        # adding an atom to k raises V by 2ck, so
        # sum_k pmf(k) e^{-c k(k-1)} (1 - e^{-2ck}) / Z
        c = 0.05
        z = gibbs_normalization_series(c, 1.0)
        exact = (
            sum(
                math.exp(-1.0) / math.factorial(k) * math.exp(-c * k * (k - 1))
                * (1.0 - math.exp(-2 * c * k))
                for k in range(60)
            )
            / z
        )
        assert exact == pytest.approx(0.0838040501545, abs=1e-12)
        L = gibbs_density(parse_density_expr("const:0.05"), lebesgue, z)
        got = bound_tv_general(L, lebesgue, 4000, SeedSpec(23), inner_samples=32)
        assert abs(got.value - exact) <= 3.0 * got.std_error

    def test_unnormalised_density_warns(self, lebesgue):
        L = poisson_density(parse_density_expr("const:2"), lebesgue)
        got = bound_tv_general(lambda w: 2.0 * L(w), lebesgue, 1500, SeedSpec(24), inner_samples=8)
        assert "normalization_warning" in got.details

    def test_monte_carlo_metadata(self, lebesgue):
        L = poisson_density(parse_density_expr("const:2"), lebesgue)
        got = bound_tv_general(L, lebesgue, 300, SeedSpec(25), inner_samples=8)
        assert got.method == "monte_carlo"
        assert got.n_samples == 300 and got.seed == SeedSpec(25)

    def test_bit_identical_reruns(self, lebesgue):
        L = poisson_density(parse_density_expr("const:2"), lebesgue)
        a = bound_tv_general(L, lebesgue, 200, SeedSpec(26), inner_samples=8)
        b = bound_tv_general(L, lebesgue, 200, SeedSpec(26), inner_samples=8)
        assert a.value == b.value and a.std_error == b.std_error

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_nested_gradient_equals_running_sum_loop(self, dim, monkeypatch):
        # oracle: the per-point loop over F(w.add(x)) on the same two streams,
        # for every caller of the shared add-one-point kernel
        import ppt.bounds
        import ppt.concentration
        from ppt.bounds import nested_gradient_mc
        from ppt.simulate import poisson_batch_with_rng, rejection_points

        window = Window([0.0] * dim, [1.0, 2.0, 0.5][:dim])
        sigma = IntensityMeasure.uniform(window, 0.7 / window.volume)  # mass 0.7

        def F(config):
            # the added (last) atom weighs differently from the others, so a
            # kernel that misplaced it would change the value
            a = config.atoms
            if a.shape[0] == 0:
                return 0.0
            return float(a[:-1].sum() + 3.7 * (a[-1] @ np.arange(1.0, dim + 1)))

        def level(config):
            return math.floor(F(config))  # integer-valued, for the co-area check

        # the same kind of functional with a stack; both sum with cumsum, which
        # adds in a fixed order, so the stack gives the bits of the call
        weights = np.arange(1.0, dim + 1)
        stack_calls = []

        def F_stacked(config):
            a = config.atoms
            if a.shape[0] == 0:
                return 0.0
            rest = np.cumsum(a[:-1].ravel())[-1] if a.shape[0] > 1 else 0.0
            return float(rest + 3.7 * np.cumsum(a[-1] * weights)[-1])

        def stack(atoms, window):
            stack_calls.append(atoms.shape)
            k, n = atoms.shape[:2]
            rest = np.cumsum(atoms[:, :-1].reshape(k, -1), axis=1)[:, -1] if n > 1 else np.zeros(k)
            return rest + 3.7 * np.cumsum(atoms[:, -1] * weights, axis=1)[:, -1]

        def level_stacked(config):
            return math.floor(F_stacked(config))

        F_stacked.stack = stack
        level_stacked.stack = lambda atoms, window: np.floor(stack(atoms, window))

        def reference(G, n, inner, config_rng, point_rng):
            configs = poisson_batch_with_rng(sigma, n, config_rng)
            xs = rejection_points(sigma, n * inner, point_rng).reshape(n, inner, dim)
            f0 = np.array([float(G(w)) for w in configs])
            f1 = np.array([[float(G(w.add(x))) for x in row] for w, row in zip(configs, xs)])
            return configs, f0, f1

        calls = []
        kernel = ppt.bounds._add_one_point_values

        def spy(G, *args):
            before = len(stack_calls)
            f0, f1 = kernel(G, *args)
            calls.append((f0, f1, stack_calls[before:]))
            return f0, f1

        monkeypatch.setattr(ppt.bounds, "_add_one_point_values", spy)
        monkeypatch.setattr(ppt.concentration, "_add_one_point_values", spy)
        seed = SeedSpec(27)
        # the plain callables go through the per-configuration path, the
        # stacked ones through one stack call per distinct atom count
        for G, lvl in ((F, level), (F_stacked, level_stacked)):
            calls.clear()
            got, f0 = nested_gradient_mc(G, sigma, 20, 7, seed, base_path=3)
            worst = ppt.rademacher_check(G, sigma, 20, seed)
            ppt.coarea_check(lvl, sigma, 20, seed, inner_samples=5)
            expected = [
                reference(G, 20, 7, seed.rng(3, 0), seed.rng(3, 1)),
                reference(G, 20, 1, seed.rng(), seed.rng(1)),
                reference(lvl, 20, 5, seed.rng(6, 0), seed.rng(6, 1)),  # co-area rhs, checked first
                reference(lvl, 20, 5, seed.rng(5, 0), seed.rng(5, 1)),  # co-area lhs
            ]
            assert len(calls) == len(expected)
            for (f0_got, f1_got, shapes), (configs, f0_ref, f1_ref) in zip(calls, expected):
                assert f0_got.tobytes() == f0_ref.tobytes()
                assert f1_got.tobytes() == f1_ref.tobytes()
                if G is F:
                    assert shapes == []
                    continue
                # one slab per count, in increasing count, holding every row of its draws
                inner = f1_ref.shape[1]
                per_count = Counter(w.n for w in configs)
                assert shapes == [(per_count[n] * inner, n + 1, dim) for n in sorted(per_count)]

            configs, f0_ref, f1_ref = expected[0]
            assert any(w.n == 0 for w in configs)
            assert f0.tobytes() == f0_ref.tobytes()
            for i in range(20):
                acc = 0.0
                for value in f1_ref[i]:
                    acc += abs(value - f0_ref[i])
                assert got[i] == sigma.total_mass * acc / 7
            _, f0_ref, f1_ref = expected[1]
            assert worst == max(abs(f1_ref[:, 0] - f0_ref))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("mass", [0.7, 12.0])
    def test_stacks_equal_the_add_loop(self, dim, mass):
        # every library stack against F(w.add(x)) on the kernel's own streams;
        # mass 0.7 gives empty outer draws, mass 12 rows of over 8 atoms
        from ppt.bounds import _add_one_point_values
        from ppt.concentration import CountAtLeastEvent, CountThresholdEvent
        from ppt.simulate import poisson_batch_with_rng, rejection_points

        window = Window([0.0] * dim, [1.0, 2.0, 0.5][:dim])
        region = Window([0.0] * dim, [0.5, 1.0, 0.25][:dim])
        sigma = IntensityMeasure.uniform(window, mass / window.volume)

        def p(x):
            return np.exp(np.sin(3.0 * x).sum(axis=-1))

        def phi(z):
            return 0.3 * np.exp(-np.sum(z * z, axis=-1))

        functionals = {
            "poisson": poisson_density(p, sigma),
            "gibbs": gibbs_density(phi, sigma, 0.8),
            "leq": CountThresholdEvent(k=int(mass)),
            "leq-region": CountThresholdEvent(k=int(mass) // 2, region=region),
            "geq": CountAtLeastEvent(m=int(mass) + 1),
            "geq-region": CountAtLeastEvent(m=1, region=region),
        }
        seed = SeedSpec(31)
        n_outer, inner = 12, 5
        configs = poisson_batch_with_rng(sigma, n_outer, seed.rng(0))
        xs = rejection_points(sigma, n_outer * inner, seed.rng(1)).reshape(n_outer, inner, dim)
        if mass < 1:
            assert any(w.n == 0 for w in configs)
        else:
            assert max(w.n for w in configs) > 8
        for name, F in functionals.items():
            f0, f1 = _add_one_point_values(F, sigma, n_outer, inner, seed.rng(0), seed.rng(1))
            want0 = np.array([float(F(w)) for w in configs])
            want1 = np.array([[float(F(w.add(x))) for x in row] for w, row in zip(configs, xs)])
            assert f0.tobytes() == want0.tobytes(), name
            assert f1.tobytes() == want1.tobytes(), name
            # and a stack of one configuration is that configuration's value
            for w in configs:
                assert F.stack(w.atoms[None], window).tobytes() == np.array([float(F(w))]).tobytes(), name

    @pytest.mark.parametrize("cap", [1, 5, 7, 11, 64])
    def test_row_cap_splits_a_count_class(self, cap, monkeypatch):
        # a cap below a count class's rows splits the class into several
        # slabs, none above the cap, and changes no value; 7 is inner_samples
        import ppt.bounds
        from ppt.bounds import _add_one_point_values

        window = Window([0.0, 0.0], [1.0, 2.0])
        sigma = IntensityMeasure.uniform(window, 1.5 / window.volume)
        L = poisson_density(lambda x: np.exp(np.sin(3.0 * x).sum(axis=-1)), sigma)
        shapes = []

        def F(config):
            return L(config)

        def stack(atoms, window):
            shapes.append(atoms.shape)
            return L.stack(atoms, window)

        F.stack = stack
        seed = SeedSpec(33)
        want = _add_one_point_values(F, sigma, 30, 7, seed.rng(0), seed.rng(1))
        counts = Counter(w.n for w in ppt.simulate.poisson_batch_with_rng(sigma, 30, seed.rng(0)))
        assert [shape[0] for shape in shapes] == [counts[n] * 7 for n in sorted(counts)]
        monkeypatch.setattr(ppt.bounds, "_SLAB_ROWS", cap)
        shapes.clear()
        for G in (F, lambda config: L(config)):  # the stack path and the per-row path
            got = _add_one_point_values(G, sigma, 30, 7, seed.rng(0), seed.rng(1))
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        # each class in full slabs of the cap, then its remainder
        rows = [counts[n] * 7 for n in sorted(counts)]
        assert [shape[0] for shape in shapes] == [
            size for r in rows for size in [cap] * (r // cap) + [r % cap] * (r % cap > 0)
        ]

    def test_stack_rejects_nonpositive_p_like_the_loop(self, lebesgue, monkeypatch):
        import ppt.bounds
        from ppt.bounds import nested_gradient_mc

        def p(x):  # p vanishes only at 0.25, where every inner point is put
            return np.where(x[..., 0] == 0.25, 0.0, 2.0)

        L = poisson_density(p, lebesgue)
        w = ppt.sample_poisson(lebesgue, SeedSpec(29))
        with pytest.raises(ValidationError) as loop_error:
            L(w.add([0.25]))
        monkeypatch.setattr(
            ppt.bounds, "rejection_points", lambda sigma, count, rng: np.full((count, 1), 0.25)
        )
        with pytest.raises(ValidationError) as stack_error:
            nested_gradient_mc(L, lebesgue, 4, 3, SeedSpec(29))
        assert str(stack_error.value) == str(loop_error.value)

    def test_stack_of_the_wrong_shape_is_rejected(self, lebesgue):
        from ppt.bounds import nested_gradient_mc

        def F(config):
            return float(config.n)

        F.stack = lambda atoms, window: np.float64(atoms.shape[1])  # one value, not one per row
        with pytest.raises(ValidationError, match="stack returned shape"):
            nested_gradient_mc(F, lebesgue, 4, 3, SeedSpec(28))

    @pytest.mark.parametrize("bad", [math.nan, 1.5])
    def test_nested_gradient_rejects_bad_inner_point(self, lebesgue, monkeypatch, bad):
        import ppt.bounds
        from ppt.bounds import nested_gradient_mc

        def rejection_points(sigma, count, rng):
            pts = np.full((count, 1), 0.5)
            pts[-1, 0] = bad  # NaN, or outside the window [0, 1]
            return pts

        monkeypatch.setattr(ppt.bounds, "rejection_points", rejection_points)
        with pytest.raises(ValidationError):
            nested_gradient_mc(lambda w: float(w.n), lebesgue, 4, 3, SeedSpec(28))

    def test_nested_gradient_configurations_are_read_only(self, lebesgue):
        from ppt.bounds import nested_gradient_mc

        seen = []

        def F(config):
            seen.append(config)
            if len(seen) > 4:  # past the four F(w), into the F(w + x)
                config.atoms[-1] = 0.0
            return 0.0

        with pytest.raises(ValueError, match="read-only"):
            nested_gradient_mc(F, lebesgue, 4, 3, SeedSpec(28))
        assert len(seen) == 5


class TestTimechangeBound:
    def test_zero_change(self):
        tc = TimeChangeSpec(
            U=lambda t: np.zeros_like(np.asarray(t, float)),
            U_prime=lambda t: np.zeros_like(np.asarray(t, float)),
            horizon=3.0,
        )
        assert bound_w2_timechange(tc).value == 0.0

    def test_boundary_term_vanishes_against_halfline(self):
        tc = rational_timechange(horizon=100.0)
        a = bound_w2_halfline(tc).value
        b = bound_w2_timechange(tc).value
        assert abs(a - b) <= 1e-6 * a

    def test_mark_mass_scales_squared_bound(self, unit_window):
        tc = rational_timechange()
        marks = IntensityMeasure.uniform(unit_window, 4.0)
        plain = bound_w2_timechange(tc).value
        marked = bound_w2_timechange(tc, marks).value
        assert marked == pytest.approx(2.0 * plain, rel=1e-9)

    def test_unit_mark_mass_reduces_to_scalar(self, unit_window):
        tc = rational_timechange()
        marks = IntensityMeasure.uniform(unit_window, 1.0)
        assert bound_w2_timechange(tc, marks).value == pytest.approx(
            bound_w2_timechange(tc).value, rel=1e-12
        )

    def test_two_expressions_agree_on_random_suite(self):
        # twenty random valid time changes from two smooth families
        rng = np.random.default_rng(77)
        for trial in range(20):
            if trial % 2 == 0:
                a = float(rng.uniform(-0.8, 2.0))
                tc = rational_timechange(scale=a, horizon=float(rng.uniform(5.0, 40.0)))
            else:
                a = float(rng.uniform(-0.5, 1.5))
                b = float(rng.uniform(0.5, 2.0))

                def U(t, a=a, b=b):
                    t = np.asarray(t, float)
                    return a * t * np.exp(-b * t)

                def U_prime(t, a=a, b=b):
                    t = np.asarray(t, float)
                    return a * np.exp(-b * t) * (1.0 - b * t)

                tc = TimeChangeSpec(U=U, U_prime=U_prime, horizon=float(rng.uniform(5.0, 40.0)))
            got = bound_w2_timechange(tc)  # raises if the two forms disagree
            rel_gap = abs(got.details["energy_form"] - got.details["inverse_form"]) / max(
                got.details["energy_form"], 1e-300
            )
            assert rel_gap <= 1e-6


class TestBoundResultContract:
    def test_all_bounds_vanish_at_the_reference_law(self, lebesgue, seed):
        zero_tc = TimeChangeSpec(
            U=lambda t: np.zeros_like(np.asarray(t, float)),
            U_prime=lambda t: np.zeros_like(np.asarray(t, float)),
            horizon=2.0,
        )
        assert bound_tv_poisson(parse_density_expr("const:1"), lebesgue).value < 1e-12
        assert bound_tv_cox(lebesgue, ConstantMixer(1.0), 50, seed).value == 0.0
        assert bound_tv_gibbs(parse_density_expr("const:0"), lebesgue).value < 1e-12
        assert bound_w2_halfline(zero_tc).value == 0.0
        assert bound_tv_general(lambda w: 1.0, lebesgue, 50, seed, inner_samples=4).value == 0.0

    def test_digest_is_deterministic(self, lebesgue):
        p = parse_density_expr("const:2")
        a = bound_tv_poisson(p, lebesgue)
        b = bound_tv_poisson(p, lebesgue)
        assert a.inputs_digest == b.inputs_digest

    def test_serialisation_round_trip_fields(self, lebesgue, seed):
        got = bound_tv_cox(lebesgue, TwoPointMixer(0.5, 1.5), 100, seed)
        data = got.to_dict()
        assert set(data) == {
            "value",
            "method",
            "std_error",
            "n_samples",
            "seed",
            "inputs_digest",
            "details",
        }
        assert data["seed"] == seed.to_dict()
