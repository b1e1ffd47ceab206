import hashlib
import math

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
        monkeypatch.setattr(ppt.simulate.metrics, "rho1", lambda a, b: -1)
        with pytest.raises(InternalConsistencyError):
            sc.sample(SeedSpec(11))

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

    CASES = {
        "right extras only": (Window([0.0], [1.0]), "const:1", "const:2"),
        "both extras": (Window([0.0], [1.0]), "const:1", "step:0.5,0.2,3"),
        "left extras only": (Window([0.0], [1.0]), "const:1", "const:0.4"),
        "2-d window": (Window([0.0, 0.0], [1.0, 2.0]), "const:2.5", "step:0.5,0.5,2"),
        # x^8 against its envelope 1 accepts 1/9 of the proposals
        "low acceptance": (Window([0.0], [1.0]), "poly:0,0,0,0,0,0,0,0,3", "poly:0,2"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_batch_equals_per_pair_draws(self, case):
        window, density, p_expr = self.CASES[case]
        fn = parse_density_expr(density)
        sc = _coupling(IntensityMeasure(fn, window, fn.sup_on(window)), p_expr)
        seed = SeedSpec(2025, 7)
        pairs = sc.sample_batch(150, seed)
        rounds = []
        for i, pair in enumerate(pairs):
            left, right, cost = per_pair_superposition(sc, SeedSpec(2025, 7 + i), rounds)
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
        assert hashlib.sha256(pts.tobytes()).hexdigest()[:16] == "8e013124a55a7dda"
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


def bisection_v_inverse(tc, r):
    """Reference: plain bisection over the whole bracket down to width 1e-6,
    then two Newton steps."""
    r = np.asarray(r, float)
    lo = np.zeros_like(r)
    hi = np.full_like(r, tc.horizon)
    iters = int(math.ceil(math.log2(max(tc.horizon / 1e-6, 2.0)))) + 1
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = tc.v(mid) < r
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = 0.5 * (lo + hi)
    for _ in range(2):
        slope = 1.0 + np.asarray(tc.U_prime(t), float)
        t = np.clip(t - (tc.v(t) - r) / slope, 0.0, tc.horizon)
    return t


class TestCountBelow:
    """``_count_below`` is ``searchsorted(a, keys, side="left")`` by a
    branch-free descent, on nondecreasing arrays of 2^K - 1 entries, K >= 0."""

    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.integers(0, 9),
        pool=st.lists(
            st.sampled_from([-math.inf, -2.5, -1.0, -0.0, 0.0, 5e-324, 1.0, 1.0 + 2**-52, 3.0, math.inf]),
            min_size=1,
        ),
        seed=st.integers(0, 2**32 - 1),
        extra=st.lists(st.floats(allow_nan=False), max_size=20),
    )
    def test_equals_searchsorted(self, levels, pool, seed, extra):
        rng = np.random.default_rng(seed)
        a = np.sort(rng.choice(np.array(pool + extra), 2**levels - 1))  # runs of ties
        finite = a[np.isfinite(a)]
        with np.errstate(over="ignore"):  # nextafter of the largest double is inf
            neighbours = [np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf)]
        keys = np.concatenate([a, *neighbours, [0.0, -0.0, math.inf, -math.inf], extra])
        rng.shuffle(keys)
        got = simulate._count_below(a, keys)
        assert got.tobytes() == np.searchsorted(a, keys, side="left").astype(np.intp).tobytes()

    def test_nan_key_goes_left(self):
        # bisection sends NaN left (``v(mid) < nan`` is false), and so does the descent
        a = np.arange(7.0)
        assert simulate._count_below(a, np.array([math.nan, 3.5])).tolist() == [0, 4]


class TestBucketedBracket:
    """The bucket index sends each key to a start of ``_count_below``'s
    descent; the count must still be ``searchsorted(a, keys, side="left")``,
    in at most K steps on 2^K - 1 entries."""

    @staticmethod
    def check(a, extra_keys=()):
        index = simulate._bucket_index(a)
        levels = (a.size + 1).bit_length() - 1
        assert index.half.bit_length() <= levels <= 16  # descent steps
        finite = a[np.isfinite(a)]
        with np.errstate(over="ignore"):  # nextafter of the largest double is inf
            neighbours = [np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf)]
        keys = np.concatenate(
            [a, *neighbours, [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf], np.asarray(extra_keys, float)]
        )
        keys = np.concatenate([keys, keys[::-1]])  # ascending and descending runs
        got = simulate._count_below(a, keys, index)
        assert got.tobytes() == np.searchsorted(a, keys, side="left").astype(np.intp).tobytes()
        nan_keys = np.array([math.nan, -math.nan, 1.0, math.nan])
        assert simulate._count_below(a, nan_keys, index)[[0, 1, 3]].tolist() == [0, 0, 0]

    @settings(max_examples=300, deadline=None)
    @given(
        levels=st.integers(0, 12),
        pool=st.lists(
            st.sampled_from([-math.inf, -2.5, -1.0, -0.0, 0.0, 5e-324, 1.0, 1.0 + 2**-52, 3.0, 1e300, math.inf]),
            min_size=1,
        ),
        extra=st.lists(st.floats(allow_nan=False), max_size=20),
        run=st.tuples(st.floats(allow_nan=False), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_searchsorted(self, levels, pool, extra, run, seed):
        # ties, signed zeros, infinite entries, extreme finite values, and a
        # flat run of one value over up to the whole table
        rng = np.random.default_rng(seed)
        size = 2**levels - 1
        value, share = run
        flat = np.full(int(share * size), value)
        a = np.sort(np.concatenate([rng.choice(np.array(pool + extra), size - flat.size), flat]))
        self.check(a, extra + [value, rng.uniform(-4.0, 4.0)])

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros(2**16 - 1),  # zero-width range: one bucket, every step
            np.full(2**16 - 1, math.inf),  # no finite entry
            np.concatenate([np.zeros(2**16 - 2), [1.0]]),  # a flat run of all entries but one
            np.concatenate([[-1.0], np.zeros(2**16 - 2)]),
            np.geomspace(1e-300, 1e300, 2**16 - 1),  # steep: most entries in the first bucket
            np.concatenate([[-1.7e308], np.linspace(0.0, 1.0, 2**16 - 3), [1.7e308]]),  # range overflows
            np.empty(0),
        ],
    )
    def test_worst_tables(self, a):
        self.check(a, np.linspace(-2.0, 2.0, 101))


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


def test_steep_time_change_equals_plain_bisection():
    # the flat start of v crowds thousands of table entries into the lowest buckets
    tc = steep_timechange()
    _, vt, rest = tc._bisection_table
    assert vt.size == 2**16 - 1 and rest == 12
    assert tc._bracket_index.half.bit_length() > 4  # a long descent in the crowded buckets
    rng = np.random.default_rng(45)
    r = np.concatenate(
        [
            rng.uniform(0.0, tc.v_end, 50_000),
            rng.uniform(0.0, 1e-2, 20_000),  # where v' is about 1e-3
            vt[::97],
            np.nextafter(vt[::89], np.inf),
            [0.0, -0.0, tc.v_end, math.inf, -math.inf, math.nan, 5e-324],
        ]
    )
    assert tc.v_inverse(r).tobytes() == bisection_v_inverse(tc, r).tobytes()


class TestVInverseTable:
    """``v_inverse`` looks up its first bisection levels in a table; every
    result must keep the bytes of plain bisection."""

    TC = rational_timechange(horizon=100.0)  # 28 bisection levels, 16 of them tabled

    def edge_inputs(self, tc):
        _, vt, _ = tc._bisection_table
        special = [0.0, -0.0, tc.v_end, -1.0, -1e-300, tc.v_end * (1 + 1e-15), 2.0 * tc.v_end,
                   math.inf, -math.inf, math.nan, 5e-324]
        return np.concatenate([special, vt, np.nextafter(vt, -np.inf), np.nextafter(vt, np.inf)])

    def test_equals_plain_bisection(self):
        tc = self.TC
        r = np.random.default_rng(41).uniform(0.0, tc.v_end, 100_000)
        assert tc.v_inverse(r).tobytes() == bisection_v_inverse(tc, r).tobytes()
        edges = self.edge_inputs(tc)
        assert tc.v_inverse(edges).tobytes() == bisection_v_inverse(tc, edges).tobytes()
        for value in edges[:11]:  # one edge value alone, and as a scalar
            assert tc.v_inverse(np.array([value])).tobytes() == bisection_v_inverse(tc, np.array([value])).tobytes()
            assert np.asarray(tc.v_inverse(value)).tobytes() == bisection_v_inverse(tc, value).tobytes()

    def test_repeated_and_descending_keys(self):
        # the table descent sees keys in the given order: ties, runs and a
        # descending sweep must reach bisection's bracket all the same
        tc = self.TC
        rng = np.random.default_rng(44)
        keys = rng.uniform(0.0, tc.v_end, 50)
        edges = self.edge_inputs(tc)[:11]
        cases = [
            np.repeat(keys, 400),  # runs of equal keys, across block boundaries
            rng.choice(np.concatenate([keys, [0.0, -0.0, tc.v_end]]), 20_000),  # scattered repeats
            np.sort(rng.uniform(-1.0, tc.v_end + 1.0, 20_000))[::-1],  # descending
            np.concatenate([np.sort(edges[np.isfinite(edges)])[::-1], np.sort(keys)[::-1]]),
        ]
        for r in cases:
            assert tc.v_inverse(r).tobytes() == bisection_v_inverse(tc, r).tobytes()

    def test_table_holds_the_bisection_midpoints(self):
        tc = self.TC
        ends, vt, rest = tc._bisection_table
        assert ends.size == 2**16 + 1 and vt.size == 2**16 - 1 and rest == 28 - 16
        assert ends[0] == 0.0 and ends[-1] == tc.horizon and ends[2**15] == 0.5 * (0.0 + tc.horizon)
        assert np.all(np.diff(ends) > 0) and np.all(np.diff(vt) >= 0)

    def test_short_horizon_tables_every_level_it_can(self):
        # 17, 16, 15 and 2 bisection levels: the table takes at most 16 of them
        for horizon, tabled, rest in [(0.033, 16, 1), (0.03, 16, 0), (0.01, 15, 0), (1e-7, 2, 0)]:
            tc = rational_timechange(horizon=horizon)
            ends, vt, left = tc._bisection_table
            assert ends.size == 2**tabled + 1 and vt.size == 2**tabled - 1 and left == rest
            edges = self.edge_inputs(tc)
            r = np.concatenate([np.random.default_rng(42).uniform(0.0, tc.v_end, 5000), edges])
            assert tc.v_inverse(r).tobytes() == bisection_v_inverse(tc, r).tobytes()
            for value in edges[:11]:
                assert np.asarray(tc.v_inverse(value)).tobytes() == bisection_v_inverse(tc, value).tobytes()

    def test_non_monotone_table_falls_back(self):
        # v is t on the 4097-point validation grid (spacing 1/4096) and dips
        # by 0.01 between its points, so it is not monotone on the finer table
        h = 1.0
        f = math.pi * 4096 / h

        def U(t):
            t = np.asarray(t, float)
            return -0.01 * np.sin(f * t) ** 2

        def U_prime(t):
            t = np.asarray(t, float)
            return -0.01 * f * np.sin(2.0 * f * t)

        tc = TimeChangeSpec(U=U, U_prime=U_prime, horizon=h)
        ends, vt, rest = tc._bisection_table  # 0 levels: every key starts from [0, h]
        assert ends.tolist() == [0.0, h] and vt.size == 0 and rest == 21
        r = np.random.default_rng(43).uniform(0.0, tc.v_end, 20_000)
        assert tc.v_inverse(r).tobytes() == bisection_v_inverse(tc, r).tobytes()

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
        assert whole.tobytes() == bisection_v_inverse(tc, r).tobytes()

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
