import hashlib
import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppt
from ppt import (
    ConstantMixer,
    IntensityMeasure,
    SeedSpec,
    SuperpositionCoupling,
    TimeChangeCoupling,
    TimeChangeSpec,
    TwoPointMixer,
    Window,
)
from ppt import simulate
from ppt.simulate import _BLOCK
from ppt.bounds import gibbs_normalization_series
from ppt.cli import parse_density_expr
from ppt.errors import InternalConsistencyError, SamplerHardnessError, ValidationError


def count_stats(configs):
    counts = np.array([c.n for c in configs], float)
    return counts.mean(), counts.var(ddof=1), counts


class TestSamplePoisson:
    def test_zero_mass_always_empty(self, unit_window, seed):
        zero = IntensityMeasure.uniform(unit_window, 0.0)
        for i in range(5):
            assert ppt.sample_poisson(zero, SeedSpec(3, i)).n == 0

    def test_count_mean_and_variance(self, unit_window):
        # Poisson(2): mean 2 and variance 2, both at three standard errors
        sigma = IntensityMeasure.uniform(unit_window, 2.0)
        configs = simulate.poisson_batch_with_rng(sigma, 100_000, SeedSpec(101).rng())
        mean, var, counts = count_stats(configs)
        n = counts.size
        assert abs(mean - 2.0) <= 3.0 * math.sqrt(2.0 / n)
        # var(sample variance)/n ~ (m4 - var^2)/n with m4 = 3 var^2 + extra for Poisson
        m4 = float(np.mean((counts - counts.mean()) ** 4))
        se_var = math.sqrt(max(m4 - var**2, 0.0) / n)
        assert abs(var - 2.0) <= 3.0 * se_var

    def test_inhomogeneous_positions(self, seed):
        # density x on [0,1]: P(atom <= 1/2) = 1/4
        w = Window([0.0], [1.0])
        sigma = IntensityMeasure(parse_density_expr("poly:0,1"), w, 1.0)
        configs = simulate.poisson_batch_with_rng(sigma, 20_000, seed.rng())
        atoms = np.concatenate([c.atoms[:, 0] for c in configs if c.n])
        frac = float(np.mean(atoms <= 0.5))
        se = math.sqrt(0.25 * 0.75 / atoms.size)
        assert abs(frac - 0.25) <= 4.0 * se

    def test_envelope_violation_raises(self, unit_window, seed):
        lying = IntensityMeasure(lambda x: np.full(np.shape(x)[:-1], 2.0), unit_window, 1.0,
                                 total_mass_hint=2.0)
        with pytest.raises(ppt.EnvelopeViolationError):
            simulate.poisson_batch_with_rng(lying, 50, seed.rng())

    def test_box_count_statistics(self):
        # counts inside a sub-box are Poisson with the box mass, mean and
        # variance both checked at three standard errors
        w = Window([0.0, 0.0], [1.0, 1.0])
        sigma = IntensityMeasure.uniform(w, 3.0)
        box = Window([0.0, 0.0], [0.5, 0.5])
        configs = simulate.poisson_batch_with_rng(sigma, 30_000, SeedSpec(102).rng())
        counts = np.array([c.count_in(box) for c in configs], float)
        n = counts.size
        assert abs(counts.mean() - 0.75) <= 3.0 * math.sqrt(0.75 / n)
        m4 = float(np.mean((counts - counts.mean()) ** 4))
        var = counts.var(ddof=1)
        se_var = math.sqrt(max(m4 - var**2, 0.0) / n)
        assert abs(var - 0.75) <= 3.0 * se_var

    def test_batch_reproducibility_bitwise(self, lebesgue):
        a = simulate.poisson_batch_with_rng(lebesgue, 20, SeedSpec(103).rng())
        b = simulate.poisson_batch_with_rng(lebesgue, 20, SeedSpec(103).rng())
        assert all(np.array_equal(x.atoms, y.atoms) for x, y in zip(a, b))


    def test_batch_slices_equal_validated_configurations(self, seed):
        w = Window([0.0, 0.0], [1.0, 2.0])
        sigma = IntensityMeasure.uniform(w, 1.5)
        batch = simulate.poisson_batch_with_rng(sigma, 200, seed.rng())
        rng = seed.rng()
        counts = rng.poisson(sigma.total_mass, size=200)
        pts = simulate.rejection_points(sigma, int(counts.sum()), rng)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for k, cfg in enumerate(batch):
            want = ppt.Configuration(pts[offsets[k] : offsets[k + 1]], w)
            assert cfg.window is w and cfg.atoms.shape == want.atoms.shape
            assert cfg.atoms.tobytes() == want.atoms.tobytes()
            assert not cfg.atoms.flags.writeable

    @pytest.mark.parametrize("bad", [[0.5, 1.5], [math.nan, 0.5], [0.5, math.inf]])
    def test_batch_validates_every_atom(self, seed, monkeypatch, bad):
        w = Window([0.0, 0.0], [1.0, 1.0])
        sigma = IntensityMeasure.uniform(w, 5.0)

        def one_bad_point(sigma, count, rng):
            pts = rng.uniform(0.0, 1.0, size=(count, 2))
            pts[count - 1] = bad
            return pts

        monkeypatch.setattr(simulate, "rejection_points", one_bad_point)
        with pytest.raises(ValidationError):
            simulate.poisson_batch_with_rng(sigma, 40, seed.rng())

    def test_batch_rejects_points_of_the_wrong_dimension(self, seed, monkeypatch):
        sigma = IntensityMeasure.uniform(Window([0.0, 0.0], [1.0, 1.0]), 5.0)
        monkeypatch.setattr(
            simulate, "rejection_points", lambda s, count, rng: np.full((count, 3), 0.5)
        )
        with pytest.raises(ValidationError):
            simulate.poisson_batch_with_rng(sigma, 40, seed.rng())

class TestPoissonCounts:
    """``poisson_counts`` is the count draw of ``poisson_batch_with_rng``."""

    @staticmethod
    def batch_counts(sigma, n, rng):
        return [w.n for w in simulate.poisson_batch_with_rng(sigma, n, rng)]

    @pytest.mark.parametrize(
        "sigma",
        [
            IntensityMeasure.uniform(Window([0.0], [1.0]), 0.0),
            IntensityMeasure.uniform(Window([0.0, 0.0], [1.0, 2.0]), 1.5),
            IntensityMeasure(parse_density_expr("poly:1,2"), Window([0.0], [1.0]), 3.0),
        ],
        ids=["mass-0", "2-d", "quadrature-mass"],
    )
    def test_equal_to_the_batch_counts(self, sigma, seed):
        counts = simulate.poisson_counts(sigma, 300, seed.rng())
        assert counts.tolist() == self.batch_counts(sigma, 300, seed.rng())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_equal_to_the_batch_counts_for_any_seed(self, seed, n):
        sigma = IntensityMeasure.uniform(Window([0.0], [2.0]), 1.5)
        counts = simulate.poisson_counts(sigma, n, SeedSpec(seed).rng())
        assert counts.tolist() == self.batch_counts(sigma, n, SeedSpec(seed).rng())

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_batch_raises(self, lebesgue, seed, n):
        with pytest.raises(ValidationError):
            simulate.poisson_counts(lebesgue, n, seed.rng())


class TestUndrawableMass:
    """Masses and windows that the samplers cannot draw from raise
    ``ValidationError``, not numpy's bare ``ValueError``."""

    wide = Window([-1.7e308], [1.7e308])  # accepted; its volume is inf
    draws = {
        "poisson_counts": lambda s: simulate.poisson_counts(s, 5, np.random.default_rng(0)),
        "poisson_batch_with_rng": lambda s: simulate.poisson_batch_with_rng(
            s, 5, np.random.default_rng(0)
        ),
        "sample_poisson": lambda s: ppt.sample_poisson(s, SeedSpec(0)),
    }

    @pytest.mark.parametrize("draw", draws)
    def test_wide_window_zero_rate_draws_nothing(self, draw):
        sigma = IntensityMeasure.uniform(self.wide, 0.0)
        assert sigma.total_mass == 0.0
        got = self.draws[draw](sigma)
        if draw == "poisson_counts":
            assert got.tolist() == [0] * 5
        else:
            assert all(w.n == 0 for w in (got if isinstance(got, list) else [got]))

    @pytest.mark.parametrize("draw", draws)
    def test_wide_window_uniform(self, draw):
        sigma = IntensityMeasure.uniform(self.wide, 3.0)
        assert self.wide.volume == math.inf
        with pytest.raises(ValidationError):
            self.draws[draw](sigma)

    def test_wide_window_rejection_points(self):
        sigma = IntensityMeasure.uniform(self.wide, 3.0)
        with pytest.raises(ValidationError):
            simulate.rejection_points(sigma, 3, np.random.default_rng(0))
        # a finite mass does not make the window's width finite
        finite = IntensityMeasure(sigma.density, self.wide, 3.0, total_mass_hint=1.0)
        with pytest.raises(ValidationError, match="wider"):
            simulate.rejection_points(finite, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("draw", draws)
    @pytest.mark.parametrize("mass", [math.nan, math.inf, 1e19, -1.0])
    def test_mass_that_generator_poisson_refuses(self, unit_window, mass, draw):
        sigma = IntensityMeasure(lambda x: np.ones(np.shape(x)[:-1]), unit_window, 1.0,
                                 total_mass_hint=mass)
        with pytest.raises(ValidationError):
            self.draws[draw](sigma)

    def test_largest_accepted_mean(self, unit_window):
        top = simulate._POISSON_LAM_MAX
        np.random.default_rng(0).poisson(top)  # numpy's own limit, accepted
        with pytest.raises(ValueError):
            np.random.default_rng(0).poisson(np.nextafter(top, math.inf))
        sigma = IntensityMeasure(lambda x: np.ones(np.shape(x)[:-1]), unit_window, 1.0,
                                 total_mass_hint=top)
        assert simulate.poisson_counts(sigma, 2, np.random.default_rng(0)).size == 2


class TestSampleCox:
    def test_degenerate_mixer_is_poisson(self, unit_window):
        base = IntensityMeasure.uniform(unit_window, 2.0)
        configs = [
            ppt.sample_cox(base, ConstantMixer(1.0), SeedSpec(5, i)) for i in range(4000)
        ]
        mean, _, counts = count_stats(configs)
        assert abs(mean - 2.0) <= 3.0 * math.sqrt(2.0 / counts.size)

    def test_two_point_mixer_total_variance(self, unit_window):
        # law of total variance: mean 2, variance 2 + 4 Var(Xi) = 3
        base = IntensityMeasure.uniform(unit_window, 2.0)
        mixer = TwoPointMixer(0.5, 1.5)
        configs = [ppt.sample_cox(base, mixer, SeedSpec(60, i)) for i in range(30_000)]
        mean, var, counts = count_stats(configs)
        n = counts.size
        assert abs(mean - 2.0) <= 3.0 * math.sqrt(3.0 / n)
        m4 = float(np.mean((counts - counts.mean()) ** 4))
        se_var = math.sqrt(max(m4 - var**2, 0.0) / n)
        assert abs(var - 3.0) <= 3.0 * se_var

    def test_zero_base_mass(self, unit_window, seed):
        zero = IntensityMeasure.uniform(unit_window, 0.0)
        assert ppt.sample_cox(zero, ConstantMixer(1.5), seed).n == 0

    def test_non_positive_mixer_rejected(self, unit_window, seed):
        base = IntensityMeasure.uniform(unit_window, 1.0)
        with pytest.raises(ValidationError):
            ppt.sample_cox(base, ConstantMixer(0.0), seed)


class TestSampleGibbs:
    def test_zero_potential_accepts_immediately(self, lebesgue, seed):
        cfg, acc = ppt.sample_gibbs(parse_density_expr("const:0"), lebesgue, seed)
        assert acc.mean == 1.0 and acc.n_samples == 1

    def test_acceptance_rate_matches_series(self, lebesgue):
        # acceptance probability is the Poisson series of exp(-c n(n-1))
        c = 0.3
        phi = parse_density_expr(f"const:{c}")
        expected = gibbs_normalization_series(c, 1.0)
        _, _, acc = ppt.sample_gibbs_coupled(phi, lebesgue, 2000, SeedSpec(7))
        se = math.sqrt(expected * (1 - expected) / acc.n_samples)
        assert abs(acc.mean - expected) <= 3.0 * se

    def test_zero_mass_accepts_empty(self, unit_window, seed):
        zero = IntensityMeasure.uniform(unit_window, 0.0)
        cfg, acc = ppt.sample_gibbs(parse_density_expr("const:0.5"), zero, seed)
        assert cfg.n == 0 and acc.mean == 1.0

    def test_hardness_error_with_diagnostics(self, unit_window, seed):
        # mass 10 with phi == 1: acceptance ~ exp(-10), far below the floor
        heavy = IntensityMeasure.uniform(unit_window, 10.0)
        with pytest.raises(SamplerHardnessError) as err:
            ppt.sample_gibbs(parse_density_expr("const:1"), heavy, seed, acceptance_floor=0.01)
        assert "proposals" in err.value.diagnostics

    def test_interaction_energy_diagonal_convention(self, unit_window):
        phi = parse_density_expr("const:0.1")
        cfg = ppt.Configuration([[0.2], [0.8]], unit_window)
        assert ppt.interaction_energy(phi, cfg) == pytest.approx(0.2)  # c n(n-1): no diagonal

    @pytest.mark.parametrize("n", [0, 1, 2, 37])
    def test_interaction_energy_equals_pair_loop(self, n):
        # oracle: the running sum over ordered pairs, one phi call per pair
        w = Window([0.0, 0.0], [1.0, 1.0])
        phi = parse_density_expr("poly:1e-3,0.3,-0.2")
        cfg = ppt.Configuration(np.random.default_rng(n).uniform(size=(n, 2)), w)
        want = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                want += 2.0 * float(phi(cfg.atoms[i] - cfg.atoms[j]))
        assert ppt.interaction_energy(phi, cfg) == want

    def test_coupled_lists_share_configurations(self, lebesgue):
        phi = parse_density_expr("const:0.05")
        props, accepted, acc = ppt.sample_gibbs_coupled(phi, lebesgue, 100, SeedSpec(8))
        assert len(props) == 100 and len(accepted) == 100
        shared = sum(
            1
            for a in props
            if any(a.n == b.n and np.array_equal(a.atoms, b.atoms) for b in accepted)
        )
        assert shared >= 60  # most proposals are accepted at this potential


class TestSuperposition:
    def test_equal_intensities_couple_exactly(self, lebesgue, seed):
        pair = SuperpositionCoupling(lebesgue, parse_density_expr("const:1")).sample(seed)
        assert pair.cost_hint == 0.0
        assert ppt.multiset_equal(pair.left, pair.right)

    def test_default_p_sup_covers_a_spike_between_grid_points(self, lebesgue):
        # a spike of height 5 and half-width 1e-5 at 0.5, midway between two
        # points of a 4096-point grid on [0, 1]: a grid maximum reads 1 there
        def p(x):
            return 1.0 + 4.0 * np.maximum(0.0, 1.0 - np.abs(x[..., 0] - 0.5) * 1e5)

        p.sup_on = lambda window: 5.0
        assert float(p(np.linspace(0.0, 1.0, 4096)[:, None]).max()) == 1.0
        sc = SuperpositionCoupling(lebesgue, p)
        assert sc.p_sup >= float(p(np.array([[0.5]]))[0]) == 5.0
        assert sc.right_extra.density_sup >= 4.0

    def test_p_sup_required_without_sup_on(self, lebesgue):
        with pytest.raises(ValidationError, match="p_sup"):
            SuperpositionCoupling(lebesgue, lambda x: np.full(x.shape[:-1], 2.0))
        sc = SuperpositionCoupling(lebesgue, lambda x: np.full(x.shape[:-1], 2.0), p_sup=2.0)
        assert sc.p_sup == 2.0

    def test_marginal_means(self, lebesgue):
        sc = SuperpositionCoupling(lebesgue, parse_density_expr("const:2"), p_sup=2.0)
        pairs = sc.sample_batch(20_000, SeedSpec(9))
        left_mean = np.mean([c.left.n for c in pairs])
        right_mean = np.mean([c.right.n for c in pairs])
        assert abs(left_mean - 1.0) <= 3.0 * math.sqrt(1.0 / len(pairs))
        assert abs(right_mean - 2.0) <= 3.0 * math.sqrt(2.0 / len(pairs))

    def test_mean_cost_unbiased(self, lebesgue):
        sc = SuperpositionCoupling(lebesgue, parse_density_expr("const:2"), p_sup=2.0)
        assert sc.mean_cost_exact == pytest.approx(1.0, abs=1e-9)
        est = sc.estimate_mean_cost(100_000, SeedSpec(10))
        assert abs(est.mean - 1.0) <= 3.0 * est.std_error

    def test_cost_hint_equals_distance_per_draw(self, lebesgue):
        sc = SuperpositionCoupling(lebesgue, parse_density_expr("const:2"), p_sup=2.0)
        for i in range(50):
            pair = sc.sample(SeedSpec(11, i))
            assert pair.cost_hint == ppt.rho1(pair.left, pair.right)

    def test_cost_hint_mismatch_is_internal_error(self, lebesgue, monkeypatch):
        sc = SuperpositionCoupling(lebesgue, parse_density_expr("const:2"), p_sup=2.0)
        monkeypatch.setattr(ppt.simulate, "_rho1_per_pair", lambda lefts, rights: np.full(len(lefts), -1))
        with pytest.raises(InternalConsistencyError):
            sc.sample(SeedSpec(11))

    def test_first_disagreeing_pair_is_named(self, lebesgue, monkeypatch):
        # the batch check raises for the first pair whose rho1 is off, with its values
        sc = SuperpositionCoupling(lebesgue, parse_density_expr("const:2"), p_sup=2.0)
        pairs = sc.sample_batch(6, SeedSpec(11))
        real = ppt.simulate._rho1_per_pair

        def off_at_2_and_4(lefts, rights):
            rho = real(lefts, rights)
            rho[[2, 4]] += 1
            return rho

        monkeypatch.setattr(ppt.simulate, "_rho1_per_pair", off_at_2_and_4)
        cost = pairs[2].cost_hint
        with pytest.raises(InternalConsistencyError) as err:
            sc.sample_batch(6, SeedSpec(11))
        assert str(err.value) == f"superposition cost hint {cost} disagrees with rho1 {int(cost) + 1}"

    def test_chi_square_goodness_of_fit_on_boxes(self, lebesgue):
        # atoms of the left margin across 4 disjoint boxes are uniform
        sc = SuperpositionCoupling(lebesgue, parse_density_expr("const:2"), p_sup=2.0)
        pairs = sc.sample_batch(4000, SeedSpec(12))
        atoms = np.concatenate([c.left.atoms[:, 0] for c in pairs if c.left.n])
        observed, _ = np.histogram(atoms, bins=[0.0, 0.25, 0.5, 0.75, 1.0])
        expected = atoms.size / 4.0
        stat = float(np.sum((observed - expected) ** 2 / expected))
        critical = scipy.stats.chi2.ppf(1.0 - 1e-3, df=3)
        assert stat <= critical

    def test_nonuniform_density_mass_split(self):
        # p(x) = 2x against Lebesgue[0,1]: shared = min(2x,1), extras split at x=1/2
        w = Window([0.0], [1.0])
        leb = IntensityMeasure.uniform(w, 1.0)
        sc = SuperpositionCoupling(leb, parse_density_expr("poly:0,2"), p_sup=2.0)
        assert sc.shared.total_mass == pytest.approx(0.75, rel=1e-8)
        assert sc.left_extra.total_mass == pytest.approx(0.25, rel=1e-7)
        assert sc.right_extra.total_mass == pytest.approx(0.25, rel=1e-8)
        est = sc.estimate_mean_cost(50_000, SeedSpec(13))
        assert abs(est.mean - 0.5) <= 3.0 * est.std_error

    def test_jump_across_the_square_mass_split(self):
        # p = 1/2 left of x0 = 0.3 and 2 right of it, on the unit square
        window = Window([0.0, 0.0], [1.0, 1.0])
        leb = IntensityMeasure.uniform(window, 1.0)
        p = parse_density_expr("step:0.3,0.5,2")
        sc = SuperpositionCoupling(leb, p)
        assert sc.shared.total_mass == pytest.approx(0.85, rel=1e-8)
        assert sc.left_extra.total_mass == pytest.approx(0.15, rel=1e-7)
        assert sc.right_extra.total_mass == pytest.approx(0.7, rel=1e-8)
        # the density of Poisson(p sigma) at the empty configuration is
        # exp(integral of 1 - p), that is exp(left - right)
        L = ppt.poisson_density(p, leb)
        assert math.log(L(ppt.Configuration(np.empty((0, 2)), window))) == pytest.approx(-0.55, rel=1e-9)

    def test_constant_ratio_leaves_no_left_extra(self, lebesgue):
        # p = 2: the shared layer is all of sigma, so no left-extra mass at all
        sc = SuperpositionCoupling(lebesgue, parse_density_expr("const:2"))
        assert (sc.shared.total_mass, sc.left_extra.total_mass, sc.right_extra.total_mass) == (1.0, 0.0, 1.0)


def per_pair_rejection(sigma, count, rng, rounds):
    """The one-stream rejection loop as it ran before streams were batched;
    appends its number of rounds to ``rounds``."""
    if count == 0:
        rounds.append(0)
        return np.empty((0, sigma.window.dim))
    lo, hi = sigma.window.bounds()
    d = sigma.window.dim
    accept_rate = sigma.total_mass / (sigma.density_sup * sigma.window.volume)
    out = np.empty((count, d))
    have = k = 0
    while have < count:
        k += 1
        todo = count - have
        batch = int(todo / max(accept_rate, 1e-3) * 1.2) + 16
        pts = rng.uniform(lo, hi, size=(batch, d))
        thresholds = rng.uniform(0.0, sigma.density_sup, size=batch)
        accepted = pts[thresholds < sigma.density_at(pts)]
        take = min(todo, accepted.shape[0])
        out[have : have + take] = accepted[:take]
        have += take
    rounds.append(k)
    return out


def per_pair_superposition(sc, seed, rounds):
    """``SuperpositionCoupling.sample`` as it ran before streams were batched:
    (left atoms, right atoms, cost hint) of the pair at ``seed``."""
    rng = seed.rng()
    d = sc.sigma.window.dim

    def layer(measure):
        return per_pair_rejection(measure, int(rng.poisson(measure.total_mass)), rng, rounds)

    shared = layer(sc.shared)
    extra_l = layer(sc.left_extra) if sc.left_extra.total_mass > 0 else np.empty((0, d))
    extra_r = layer(sc.right_extra) if sc.right_extra.total_mass > 0 else np.empty((0, d))
    left = ppt.Configuration(np.vstack([shared, extra_l]), sc.sigma.window)
    right = ppt.Configuration(np.vstack([shared, extra_r]), sc.sigma.window)
    return left.atoms, right.atoms, float(extra_l.shape[0] + extra_r.shape[0])


def _coupling(sigma, p_expr):
    return SuperpositionCoupling(sigma, parse_density_expr(p_expr))


class TestBatchedSuperposition:
    """Every stream of a batch is drawn exactly as it was drawn alone."""

    # (window, density, p, the batch's first stream id)
    CASES = {
        "right extras only": (Window([0.0], [1.0]), "const:1", "const:2", 7),
        "both extras": (Window([0.0], [1.0]), "const:1", "step:0.5,0.2,3", 7),
        "left extras only": (Window([0.0], [1.0]), "const:1", "const:0.4", 7),
        "2-d window": (Window([0.0, 0.0], [1.0, 2.0]), "const:2.5", "step:0.5,0.5,2", 7),
        # x^8 against its envelope 1 accepts 1/9 of the proposals
        "low acceptance": (Window([0.0], [1.0]), "poly:0,0,0,0,0,0,0,0,3", "poly:0,2", 7),
        # ids from 2^32 on are spawn keys of two words
        "stream ids across 2^32": (Window([0.0], [1.0]), "const:1", "step:0.5,0.2,3", 2**32 - 3),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_batch_equals_per_pair_draws(self, case):
        window, density, p_expr, first = self.CASES[case]
        fn = parse_density_expr(density)
        sc = _coupling(IntensityMeasure(fn, window, fn.sup_on(window)), p_expr)
        seed = SeedSpec(2025, first)
        pairs = sc.sample_batch(150, seed)
        rounds = []
        for i, pair in enumerate(pairs):
            left, right, cost = per_pair_superposition(sc, SeedSpec(2025, first + i), rounds)
            assert pair.left.atoms.tobytes() == left.tobytes()
            assert pair.right.atoms.tobytes() == right.tobytes()
            assert pair.left.atoms.shape == left.shape and pair.right.atoms.shape == right.shape
            assert pair.cost_hint == cost
            assert pair.left.window is window and not pair.left.atoms.flags.writeable
        if case == "low acceptance":
            assert max(rounds) >= 2  # some stream drew a second rejection round

    def test_pair_does_not_depend_on_batch_size(self, lebesgue):
        sc = _coupling(lebesgue, "step:0.5,0.2,3")
        big = sc.sample_batch(40, SeedSpec(3, 100))
        small = sc.sample_batch(5, SeedSpec(3, 135))
        for a, b in zip(big[35:], small):
            assert a.left.atoms.tobytes() == b.left.atoms.tobytes()
            assert a.right.atoms.tobytes() == b.right.atoms.tobytes()

    def test_sample_is_the_batch_of_one(self, lebesgue):
        sc = _coupling(lebesgue, "step:0.5,0.2,3")
        for i in range(10):
            one = sc.sample(SeedSpec(4, i))
            batch = sc.sample_batch(1, SeedSpec(4, i))[0]
            assert one.left.atoms.tobytes() == batch.left.atoms.tobytes()
            assert one.right.atoms.tobytes() == batch.right.atoms.tobytes()
            assert one.cost_hint == batch.cost_hint

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_batch_rejected(self, lebesgue, n):
        with pytest.raises(ValidationError, match="batch size must be positive"):
            _coupling(lebesgue, "const:2").sample_batch(n, SeedSpec(1))

    def test_rejection_points_bytes_pinned(self):
        fn = parse_density_expr("poly:0,0,0,0,0,0,0,0,3")
        sigma = IntensityMeasure(fn, Window([0.0], [1.0]), 3.0)
        pts = simulate.rejection_points(sigma, 200, np.random.default_rng(5))
        assert pts.shape == (200, 1)
        assert hashlib.sha256(pts.tobytes()).hexdigest()[:16] == "1d487123b3aac81b"
        assert pts.tobytes() == per_pair_rejection(sigma, 200, np.random.default_rng(5), []).tobytes()

    def test_negative_count_rejected(self, lebesgue):
        with pytest.raises(ValidationError, match="nonnegative"):
            simulate.rejection_points(lebesgue, -1, np.random.default_rng(0))

    def test_envelope_violation_raises_from_the_batch(self, lebesgue):
        lying = IntensityMeasure(
            lambda x: np.full(np.shape(x)[:-1], 2.0), lebesgue.window, 1.0, total_mass_hint=2.0
        )
        sc = SuperpositionCoupling(lying, parse_density_expr("const:2"))
        with pytest.raises(ppt.EnvelopeViolationError):
            sc.sample_batch(20, SeedSpec(5))

    def test_no_progress_raises_from_the_batch(self, lebesgue):
        # a zero density that declares mass 5: every left-extra proposal is rejected
        empty = IntensityMeasure(
            lambda x: np.zeros(np.shape(x)[:-1]), lebesgue.window, 1.0, total_mass_hint=5.0
        )
        sc = SuperpositionCoupling(empty, parse_density_expr("const:2"))
        assert sc.left_extra.total_mass == 5.0
        with pytest.raises(SamplerHardnessError):
            sc.sample_batch(20, SeedSpec(6))


def rational_timechange(scale=1.0, horizon=30.0):
    def U(t, s=scale):
        t = np.asarray(t, float)
        return s * t / (1.0 + t**3)

    def U_prime(t, s=scale):
        t = np.asarray(t, float)
        return s * (1.0 - 2.0 * t**3) / (1.0 + t**3) ** 2

    return TimeChangeSpec(U=U, U_prime=U_prime, horizon=horizon)


class TestTimeChange:
    def test_zero_change_couples_exactly(self, seed):
        tc = TimeChangeSpec(
            U=lambda t: np.zeros_like(np.asarray(t, float)),
            U_prime=lambda t: np.zeros_like(np.asarray(t, float)),
            horizon=5.0,
        )
        pair = TimeChangeCoupling(tc).sample(seed)
        assert pair.cost_hint == 0.0
        assert np.array_equal(pair.left.atoms, pair.right.atoms)

    def test_atom_order_preserved(self, seed):
        tc = rational_timechange()
        pair = TimeChangeCoupling(tc).sample(seed)
        left = pair.left.atoms[:, 0]
        assert np.all(np.diff(left) >= 0)

    def test_inverse_accuracy(self):
        tc = rational_timechange()
        r = np.linspace(0.0, tc.v_end, 257)
        t = tc.v_inverse(r)
        assert np.max(np.abs(tc.v(t) - r)) < 1e-10

    def test_mean_cost_below_l2_norm(self):
        tc = rational_timechange()
        coupling = TimeChangeCoupling(tc)
        est = coupling.estimate_mean_cost(4000, SeedSpec(14))
        bound = ppt.bound_w2_halfline(tc).value
        assert est.mean <= bound + 3.0 * est.std_error

    def test_cost_hint_dominates_distance(self):
        tc = rational_timechange()
        coupling = TimeChangeCoupling(tc)
        for i in range(10):
            pair = coupling.sample(SeedSpec(15, i))
            assert pair.cost_hint >= ppt.rho2(pair.left, pair.right) - 1e-9

    def test_cost_hint_below_distance_is_internal_error(self, monkeypatch):
        coupling = TimeChangeCoupling(rational_timechange())
        monkeypatch.setattr(ppt.simulate.metrics, "rho2", lambda a, b: math.inf)
        with pytest.raises(InternalConsistencyError):
            coupling.sample(SeedSpec(15))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValidationError):  # U' hits -1
            TimeChangeSpec(
                U=lambda t: -np.asarray(t, float),
                U_prime=lambda t: -np.ones_like(np.asarray(t, float)),
                horizon=1.0,
            )
        with pytest.raises(ValidationError):  # U(0) != 0
            TimeChangeSpec(
                U=lambda t: np.asarray(t, float) + 1.0,
                U_prime=lambda t: np.ones_like(np.asarray(t, float)),
                horizon=1.0,
            )

    def test_batch_reproducibility(self):
        tc = rational_timechange()
        coupling = TimeChangeCoupling(tc)
        a = coupling.estimate_mean_cost(500, SeedSpec(16))
        b = coupling.estimate_mean_cost(500, SeedSpec(16))
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_chunk_size_does_not_change_bytes(self, monkeypatch):
        coupling = TimeChangeCoupling(rational_timechange())

        def estimate_bytes(chunk_atoms):
            monkeypatch.setattr(simulate, "_CHUNK_ATOMS", chunk_atoms)
            est = coupling.estimate_mean_cost(300, SeedSpec(16))
            return np.array([est.mean, est.std_error]).tobytes(), est.n_samples, est.seed

        # one draw per chunk, a few draws, several draws, and every draw in one chunk
        results = [estimate_bytes(k) for k in (1, 101, 4096, 10**7)]
        assert all(r == results[0] for r in results[1:])


def steep_timechange(horizon=100.0):
    """v' = 1e-3 + 9.999 (t / horizon)^2: slopes from 1e-3 to 10 on [0, horizon]."""
    c = 9.999 / horizon**2

    def U(t):
        t = np.asarray(t, float)
        return (1e-3 - 1.0) * t + c * t**3 / 3.0

    def U_prime(t):
        t = np.asarray(t, float)
        return (1e-3 - 1.0) + c * t**2

    return TimeChangeSpec(U=U, U_prime=U_prime, horizon=horizon)


def exact_rational(scale):
    """v of :func:`rational_timechange` in exact arithmetic, for mpmath."""
    s = mpmath.mpf(scale)
    return lambda t: t + s * t / (1 + t**3)


def exact_steep(horizon):
    """v of :func:`steep_timechange` in exact arithmetic, on its float coefficients."""
    a, c = mpmath.mpf(1e-3 - 1.0), mpmath.mpf(9.999 / horizon**2)
    return lambda t: t + a * t + c * t**3 / 3


def edge_keys(tc):
    return np.array(
        [0.0, -0.0, tc.v_end, -1.0, -1e-300, tc.v_end * (1 + 1e-15), 2.0 * tc.v_end,
         math.inf, -math.inf, math.nan, 5e-324]
    )


def assert_within_tolerance(tc, v_exact, r):
    """``tc.v_inverse(r)`` is within 1e-12 absolute of the root of ``v_exact(t) = r``
    (found by mpmath to 40 digits) for keys in [v(0), v_end]; it is exactly 0
    below v(0), the horizon above v_end, and NaN for NaN."""
    r = np.asarray(r, float)
    t = tc.v_inverse(r)
    v0 = float(tc.v(np.array([0.0]))[0])
    assert np.array_equal(np.isnan(t), np.isnan(r))
    assert np.all(t[r < v0] == 0.0) and np.all(t[r > tc.v_end] == tc.horizon)
    inside = (r >= v0) & (r <= tc.v_end)
    with mpmath.workdps(40):
        for key, got in zip(r[inside].tolist(), t[inside].tolist()):
            root = mpmath.findroot(lambda x: v_exact(x) - key, mpmath.mpf(got))
            root = min(max(root, 0), tc.horizon)
            assert abs(root - got) <= 1e-12, (key, got, root)


def assert_edges_exact(tc):
    """The edge keys give 0 at and below 0, the horizon at and above ``v_end``
    and NaN for NaN, as one batch, one at a time and as scalars; 5e-324 is
    within 1e-12 of its root.  Infinite and NaN keys raise no warning."""
    keys = edge_keys(tc)
    h = tc.horizon
    got = tc.v_inverse(keys)
    assert got[:9].tobytes() == np.array([0.0, 0.0, h, 0.0, 0.0, h, h, h, 0.0]).tobytes()
    assert math.isnan(got[9]) and 0.0 <= got[10] <= 1e-12
    for key, value in zip(keys, got):
        assert tc.v_inverse(np.array([key])).tobytes() == np.array([value]).tobytes()
        assert np.asarray(tc.v_inverse(key)).tobytes() == np.asarray(value).tobytes()


def assert_table_structure(tc):
    """The table runs from 0 to the horizon, increases strictly and holds v at its entries."""
    ts, vs = tc._table
    assert ts.size == vs.size == 2**14 + 1
    assert ts[0] == 0.0 and ts[-1] == tc.horizon and np.all(np.diff(ts) > 0)
    assert vs.tobytes() == tc.v(ts).tobytes()


def table_keys(tc, every):
    """Keys on every ``every``-th inner v value of the table, and on both their neighbours."""
    vt = tc._table[1][1:-1][::every]
    return np.concatenate([vt, np.nextafter(vt, -np.inf), np.nextafter(vt, np.inf)])


def test_steep_time_change_within_tolerance():
    # v' runs from 1e-3 to 10, so the table's equal steps of v are steps of t
    # that shrink from about 3.7 at the flat start to 0.002 at the horizon
    tc = steep_timechange()
    assert_table_structure(tc)
    ts = tc._table[0]
    assert ts[1] - ts[0] > 1000.0 * (ts[-1] - ts[-2])
    rng = np.random.default_rng(45)
    r = np.concatenate(
        [
            rng.uniform(0.0, tc.v_end, 300),
            rng.uniform(0.0, 1e-2, 100),  # where v' is about 1e-3
            table_keys(tc, 991),
            edge_keys(tc),
        ]
    )
    assert_within_tolerance(tc, exact_steep(100.0), r)
    assert_edges_exact(tc)


@settings(max_examples=30, deadline=None)
@given(horizon=st.floats(1.0, 150.0), seed=st.integers(0, 2**32 - 1))
def test_steep_family_within_tolerance(horizon, seed):
    tc = steep_timechange(horizon)
    r = np.random.default_rng(seed).uniform(0.0, tc.v_end, 20)
    assert_within_tolerance(tc, exact_steep(horizon), np.concatenate([r, edge_keys(tc)]))


class TestVInverseTable:
    """``v_inverse`` takes each key's coarse bracket from a table, starts at
    the interpolation of v across it and runs safeguarded Newton: every
    result must be within 1e-12 of the exact root, and the edge keys exact."""

    TC = rational_timechange(horizon=100.0)

    def test_within_tolerance_of_the_exact_root(self):
        tc = self.TC
        rng = np.random.default_rng(41)
        r = np.concatenate([rng.uniform(0.0, tc.v_end, 400), table_keys(tc, 157), edge_keys(tc)])
        assert_within_tolerance(tc, exact_rational(1.0), r)
        assert_edges_exact(tc)

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(-0.9, 2.5), horizon=st.floats(1e-3, 200.0), seed=st.integers(0, 2**32 - 1))
    def test_within_tolerance_over_scales_and_horizons(self, scale, horizon, seed):
        # v' = 1 + U' stays at least 0.1 on these scales
        tc = rational_timechange(scale, horizon)
        r = np.random.default_rng(seed).uniform(0.0, tc.v_end, 20)
        assert_within_tolerance(tc, exact_rational(scale), np.concatenate([r, edge_keys(tc)]))

    def test_identity_time_change_inverts_exactly(self):
        tc = TimeChangeSpec(
            U=lambda t: np.zeros_like(np.asarray(t, float)),
            U_prime=lambda t: np.zeros_like(np.asarray(t, float)),
            horizon=100.0,
        )
        ts = tc._table[0]
        assert ts.tobytes() == tc._table[1].tobytes()  # v is the identity on the table too
        r = np.concatenate(
            [
                np.random.default_rng(46).uniform(0.0, tc.horizon, 50_000),
                ts,
                np.nextafter(ts, -np.inf),
                np.nextafter(ts, np.inf),
                [5e-324, 2.2250738585072014e-308, 1e-300, 1e-12],
            ]
        )
        assert np.array_equal(tc.v_inverse(r), np.clip(r, 0.0, tc.horizon))
        assert_edges_exact(tc)

    def test_oscillating_time_change_takes_many_rounds(self):
        # v' = 1 + 0.9 cos(2e4 t) swings between 0.1 and 1.9 about twenty
        # times per table bracket, so Newton steps leave their brackets or
        # fail to halve, keys bisect, and the rounds gather ever fewer keys
        a, w = 0.9, 2e4
        calls = []

        def U_prime(t):
            calls.append(np.size(t))
            return a * np.cos(w * np.asarray(t, float))

        tc = TimeChangeSpec(U=lambda t: a * np.sin(w * np.asarray(t, float)) / w, U_prime=U_prime, horizon=100.0)
        assert_table_structure(tc)  # built here, so that only the keys' rounds are counted below
        calls.clear()
        r = np.random.default_rng(47).uniform(0.0, tc.v_end, 300)
        def v_exact(t):
            return t + mpmath.mpf(a) * mpmath.sin(mpmath.mpf(w) * t) / mpmath.mpf(w)

        assert_within_tolerance(tc, v_exact, r)
        rounds = calls[:-2]  # the last two are the polishing steps
        assert len(rounds) >= 5 and rounds[0] == r.size and rounds[-1] < rounds[1] < r.size

    def test_repeated_and_descending_keys(self):
        # the table lookup and the Newton rounds see keys in the given order:
        # runs of ties, scattered repeats and a descending sweep must give each
        # key the result it gets in any other order
        tc = self.TC
        rng = np.random.default_rng(44)
        keys = rng.uniform(0.0, tc.v_end, 50)
        edges = edge_keys(tc)
        cases = [
            np.repeat(keys, 400),  # runs of equal keys, across block boundaries
            rng.choice(np.concatenate([keys, [0.0, -0.0, tc.v_end]]), 20_000),  # scattered repeats
            np.sort(rng.uniform(-1.0, tc.v_end + 1.0, 20_000))[::-1],  # descending
            np.concatenate([np.sort(edges[np.isfinite(edges)])[::-1], np.sort(keys)[::-1]]),
        ]
        for r in cases:
            perm = rng.permutation(r.size)
            shuffled = np.empty(r.size)
            shuffled[perm] = tc.v_inverse(r[perm])
            assert tc.v_inverse(r).tobytes() == shuffled.tobytes()
        assert_within_tolerance(tc, exact_rational(1.0), np.concatenate([keys, edges]))

    def test_table_holds_equal_steps_of_v(self):
        tc = self.TC
        assert_table_structure(tc)
        vs = tc._table[1]
        # v at each entry is v(0) + k dv to within 1e-12 of dv's scale
        steps = vs[0] + (vs[-1] - vs[0]) / 2**14 * np.arange(2**14 + 1)
        assert np.max(np.abs(vs - steps)) <= 1e-12 * tc.v_end

    def test_short_horizons_within_tolerance(self):
        # the table's 2^14 steps split even a horizon of 1e-7 into distinct doubles
        for horizon in (0.033, 0.03, 0.01, 1e-7):
            tc = rational_timechange(horizon=horizon)
            assert_table_structure(tc)
            r = np.concatenate([np.random.default_rng(42).uniform(0.0, tc.v_end, 200), table_keys(tc, 257)])
            assert_within_tolerance(tc, exact_rational(1.0), r)
            assert_edges_exact(tc)

    def test_brackets_with_no_rise(self):
        # equal consecutive table entries, which rounding could give where v
        # is very steep, make a bracket of no width and no rise of v: keys
        # there start at lo with no RuntimeWarning (the suite makes those
        # errors), infinite and NaN keys too, and still invert
        starts = []

        def U(t):
            starts.append(np.array(t, float))
            return np.zeros_like(np.asarray(t, float))

        tc = TimeChangeSpec(U=U, U_prime=lambda t: np.zeros_like(np.asarray(t, float)), horizon=100.0)
        ts = tc._table[0].copy()
        dv = tc._table[1][-1] / 2**14
        flat = [0, 5000, 2**14 - 1]  # the first bracket, an inner one and the last
        ts[1], ts[5001], ts[-2] = ts[0], ts[5000], ts[-1]
        tc.__dict__["_table"] = (ts, tc.v(ts))
        rng = np.random.default_rng(49)
        r = np.concatenate([(b + rng.uniform(0.0, 1.0, 20)) * dv for b in flat] + [edge_keys(tc)])
        bracket = np.clip(np.nan_to_num(r / dv, nan=0.0), 0, 2**14 - 1).astype(int)
        assert np.all(np.isin(bracket, flat))
        starts.clear()
        got = tc.v_inverse(r)
        assert starts[0].tobytes() == ts[bracket].tobytes()  # the first v evaluation is at the starts
        np.testing.assert_array_equal(got, np.clip(r, 0.0, tc.horizon))  # -0.0 gives 0.0

    def test_non_monotone_table_is_rejected(self):
        # v is t on the 4097-point grid that U' is validated on (spacing
        # 1/4096) and dips by 0.01 between its points, where U' reaches
        # about -129, outside (-1, inf): v decreases on the constructor's
        # finer grid of 2^16 steps
        h = 1.0
        f = math.pi * 4096 / h

        def U(t):
            t = np.asarray(t, float)
            return -0.01 * np.sin(f * t) ** 2

        def U_prime(t):
            t = np.asarray(t, float)
            return -0.01 * f * np.sin(2.0 * f * t)

        with pytest.raises(ValidationError, match="strictly increasing on a grid of 2"):
            TimeChangeSpec(U=U, U_prime=U_prime, horizon=h)

    def test_polishing_stays_at_a_jump(self):
        # v rises by 2000 within about 1e-14 of t = 0.5, where U' reaches
        # 1e17, and has slope 1 elsewhere.  Keys inside the rise have the
        # root 0.5, yet a Newton step from within 1e-6 of it sees slope 1
        # and lands up to the whole horizon away
        s = 1e-14

        def U(t):
            return 1e3 * (np.tanh((np.asarray(t, float) - 0.5) / s) + np.tanh(0.5 / s))

        def U_prime(t):
            return 1e3 / s * (1.0 - np.tanh((np.asarray(t, float) - 0.5) / s) ** 2)

        tc = TimeChangeSpec(U=U, U_prime=U_prime, horizon=1.0)
        got = tc.v_inverse(np.array([0.85, 10.0, 1000.0]))
        assert np.all(np.abs(got - 0.5) <= 1e-6), got
        ts = tc._table[0]
        assert ts[0] == 0.0 and ts[-1] == 1.0 and np.all(np.diff(ts) >= 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 20_000),
        cut=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        nan_at=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    def test_blocks_do_not_change_bytes(self, n, cut, seed, nan_at):
        tc = self.TC
        r = np.random.default_rng(seed).uniform(-1.0, tc.v_end + 1.0, n)
        if nan_at is not None:
            r[int(nan_at * (n - 1))] = math.nan
        k = int(cut * n)
        whole = tc.v_inverse(r)
        parts = np.concatenate([tc.v_inverse(r[:k]), tc.v_inverse(r[k:])])
        assert whole.tobytes() == parts.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.tuples(*[st.one_of(st.integers(0, 40), st.integers(_BLOCK - 40, _BLOCK + 40))] * 2),
        seed=st.integers(0, 2**32 - 1),
        nan_in=st.sampled_from(["neither", "first", "second", "both"]),
    )
    @example(sizes=(_BLOCK - 1, 2), seed=0, nan_in="neither")  # joined, a block boundary falls inside r2
    @example(sizes=(_BLOCK + 1, _BLOCK - 1), seed=1, nan_in="second")
    @example(sizes=(3, _BLOCK), seed=2, nan_in="first")
    def test_split_batch_is_bit_identical(self, sizes, seed, nan_in):
        # v_inverse(r1 ++ r2) == v_inverse(r1) ++ v_inverse(r2), with the
        # joined batch's blocks straddling the split and NaN in some blocks
        tc = self.TC
        rng = np.random.default_rng(seed)
        r1, r2 = (rng.uniform(-1.0, tc.v_end + 1.0, k) for k in sizes)
        for part, which in ((r1, "first"), (r2, "second")):
            if part.size and nan_in in (which, "both"):
                part[rng.integers(part.size)] = math.nan
        whole = tc.v_inverse(np.concatenate([r1, r2]))
        assert whole.tobytes() == np.concatenate([tc.v_inverse(r1), tc.v_inverse(r2)]).tobytes()
