import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppt
from ppt import (
    Configuration,
    Estimate,
    IntensityMeasure,
    SeedSpec,
    Window,
    grad_sharp,
    rademacher_check,
)
from ppt.core import _stream_rngs, config_from_coords, config_to_coords, estimate_from_values
from ppt.errors import (
    EnvelopeViolationError,
    UnsupportedDimensionError,
    ValidationError,
)
from ppt.simulate import poisson_batch_with_rng

from conftest import config


class TestWindow:
    def test_basic(self):
        w = Window([0.0, -1.0], [2.0, 3.0])
        assert w.dim == 2
        assert w.volume == pytest.approx(8.0)

    @pytest.mark.filterwarnings("error")
    def test_wider_than_the_largest_double_has_infinite_volume(self):
        assert Window([-1e308, 0.0], [1e308, 1.0]).volume == math.inf

    def test_requires_lower_below_upper(self):
        with pytest.raises(ValidationError):
            Window([1.0], [1.0])
        with pytest.raises(ValidationError):
            Window([2.0], [1.0])

    def test_requires_finite(self):
        with pytest.raises(ValidationError):
            Window([0.0], [math.inf])

    def test_contains(self):
        w = Window([0.0], [1.0])
        inside = w.contains(np.array([[0.5], [1.0], [1.5]]))
        assert list(inside) == [True, True, False]

    def test_contains_on_rows_and_stacks(self):
        w = Window([0.0, -1.0], [1.0, 1.0])
        assert w.contains(np.array([[0.5, -0.0]])).tolist() == [True]
        assert w.contains(np.empty((0, 2))).shape == (0,)
        stack = np.array([[[0.5, 0.5], [1.5, 0.5]], [[0.0, -1.0], [0.5, 1.01]]])
        assert w.contains(stack).tolist() == [[True, False], [True, False]]

    def test_bounds_are_read_only_and_equal_to_the_tuples(self):
        w = Window([0.0, -1.0], [1.0, 1.0])
        lo, hi = w.bounds()
        assert lo.tolist() == list(w.lower) and hi.tolist() == list(w.upper)
        with pytest.raises(ValueError):
            lo[0] = -5.0
        assert w == Window([0.0, -1.0], [1.0, 1.0]) and hash(w) == hash(Window([0.0, -1.0], [1.0, 1.0]))


class TestConfiguration:
    def test_empty_is_valid(self, unit_window):
        cfg = Configuration([], unit_window)
        assert cfg.n == 0 and cfg.atoms.shape == (0, 1)

    def test_atom_outside_window_rejected(self, unit_window):
        with pytest.raises(ValidationError):
            config([2.0], unit_window)

    def test_dimension_mismatch_rejected(self, unit_window):
        with pytest.raises(ValidationError):
            Configuration(np.zeros((1, 2)), unit_window)

    def test_atoms_are_immutable(self, unit_window):
        cfg = config([0.5], unit_window)
        with pytest.raises(ValueError):
            cfg.atoms[0, 0] = 0.7

    def test_multiset_equality_ignores_order(self, unit_window):
        a = config([[0.1], [0.9]], unit_window)
        b = config([[0.9], [0.1]], unit_window)
        assert ppt.multiset_equal(a, b)

    def test_add_and_restrict(self, unit_window):
        cfg = config([0.25], unit_window).add([0.75])
        assert cfg.n == 2
        half = Window([0.0], [0.5])
        assert cfg.restrict(half).n == 1

    def test_add_validates_only_the_new_point(self, unit_window):
        cfg = config([0.25], unit_window)
        for bad in ([1.5], [math.nan], [0.5, 0.5], []):
            with pytest.raises(ValidationError):
                cfg.add(bad)
        grown = cfg.add([0.75])
        assert grown.window is cfg.window
        assert grown.atoms.tolist() == [[0.25], [0.75]] and cfg.n == 1
        with pytest.raises(ValueError):
            grown.atoms[0, 0] = 0.7

    def test_count_in(self, unit_window):
        cfg = config([[0.1], [0.2], [0.8]], unit_window)
        assert cfg.count_in(Window([0.0], [0.5])) == 2

    def test_count_in_rejects_a_window_of_another_dimension(self, unit_window):
        square = Window([0.0, 0.0], [1.0, 1.0])
        cube = Window([0.0] * 3, [1.0] * 3)
        cases = [
            (config([[0.2, 0.9], [0.3, 0.1]], square), Window([0.0], [0.5])),  # broadcast to 1
            (config([[0.2], [0.3]], unit_window), square),  # broadcast over both axes
            (config([[0.2, 0.9], [0.3, 0.1]], square), cube),  # raw numpy ValueError
            (config(np.empty((0, 2)), square), cube),  # no atoms to compare
            (Configuration(np.full((20, 2), 0.5), square), Window([0.0], [1.0])),  # many atoms
        ]
        for cfg, region in cases:
            with pytest.raises(ValidationError, match="dimension"):
                cfg.count_in(region)
            with pytest.raises(ValidationError, match="dimension"):
                cfg.restrict(region)


# coordinates on the faces of the regions below, signed zeros, and points
# outside them, so both comparisons of each coordinate are exercised
COUNT_COORDS = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, math.nextafter(0.5, 1.0)]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
COUNT_REGION_BOUNDS = st.sampled_from(
    [(0.0, 1.0), (-0.0, 0.5), (0.25, 0.75), (0.5, 0.5 + 2**-40), (-2.0, -1.0), (1.5, 2.0), (-1.0, 2.0)]
)


@st.composite
def count_cases(draw):
    d = draw(st.integers(1, 3))
    window = Window([0.0] * d, [1.0] * d)
    n = draw(st.integers(0, 40))
    atoms = np.array(draw(st.lists(st.tuples(*[COUNT_COORDS] * d), min_size=n, max_size=n)), float)
    bounds = [draw(COUNT_REGION_BOUNDS) for _ in range(d)]
    region = Window([lo for lo, _ in bounds], [hi for _, hi in bounds])
    return Configuration(atoms.reshape(n, d), window), region


@settings(max_examples=400, deadline=None)
@given(count_cases())
def test_count_in_equals_the_numpy_membership_count(case):
    cfg, region = case
    got = cfg.count_in(region)
    assert type(got) is int
    assert got == int(np.count_nonzero(region.contains(cfg.atoms)))


class TestTotalMass:
    def test_unit_box(self, lebesgue):
        assert lebesgue.total_mass == pytest.approx(1.0, rel=1e-10)

    def test_constant_2d(self):
        w = Window([0.0, 0.0], [1.0, 1.0])
        sigma = IntensityMeasure(lambda x: np.full(np.shape(x)[:-1] or (), 2.0), w, 2.0)
        assert sigma.total_mass == pytest.approx(2.0, rel=1e-8)

    def test_linear_density_matches_analytic(self):
        # oracle: integral of x over [0, 2] equals 2 analytically
        w = Window([0.0], [2.0])
        sigma = IntensityMeasure(lambda x: np.asarray(x, float)[..., 0], w, 2.0)
        assert sigma.total_mass == pytest.approx(2.0, rel=1e-10)

    def test_scaling_homogeneity(self, lebesgue):
        for c in (0.0, 0.5, 3.0):
            assert lebesgue.scaled(c).total_mass == pytest.approx(
                c * lebesgue.total_mass, abs=1e-12
            )

    def test_scaled_mass_does_not_depend_on_what_was_read_before(self):
        # poly:1,2 has no mass hint, so its mass is integrated; scaled once
        # took that path only if the base mass had been read, and integrated
        # the scaled density otherwise, which differs in the last bit
        from ppt.cli import parse_density_expr

        def base():
            fn = parse_density_expr("poly:1,2")
            return IntensityMeasure(fn, Window([0.0], [1.0]), fn.sup_on(Window([0.0], [1.0])))

        for f in (0.37, 0.1, 2.5, 3.0):
            fresh = base().scaled(f).total_mass
            read = base()
            _ = read.total_mass
            assert fresh.hex() == read.scaled(f).total_mass.hex() == (f * read.total_mass).hex()

    def test_unsupported_dimension(self):
        w = Window([0.0] * 4, [1.0] * 4)
        sigma = IntensityMeasure(lambda x: 1.0, w, 1.0)
        with pytest.raises(UnsupportedDimensionError):
            _ = sigma.total_mass

    def test_envelope_violation_detected(self, unit_window):
        sigma = IntensityMeasure(ppt.pointwise(lambda x: 1.0), unit_window, density_sup=0.5)
        with pytest.raises(EnvelopeViolationError):
            sigma.density_at(np.array([[0.3]]))

    def test_density_checks_skip_nan_values(self, unit_window):
        # NaN passes both checks; a negative or too large value next to it
        # still raises, the negative one first
        values = {0: [], 1: [math.nan], 2: [math.nan, -1.0], 3: [math.nan, 5.0, 1.0], 4: [5.0, -1.0, 1.0, 1.0]}
        sigma = IntensityMeasure(lambda x: np.array(values[x.shape[0]]), unit_window, density_sup=2.0)
        assert math.isnan(sigma.density_at(np.array([0.3]))[0])  # one point, as a row
        with pytest.raises(ValidationError, match="nonnegative"):
            sigma.density_at(np.zeros((2, 1)))
        with pytest.raises(EnvelopeViolationError):
            sigma.density_at(np.zeros((3, 1)))
        with pytest.raises(ValidationError, match="nonnegative"):
            sigma.density_at(np.zeros((4, 1)))
        assert sigma.density_at(np.zeros((0, 1))).shape == (0,)


class TestGradSharp:
    def test_constant_functional(self, unit_window):
        cfg = config([0.5], unit_window)
        assert grad_sharp(lambda w: 7.0, cfg, [0.25]) == 0.0

    def test_count_increments(self, unit_window):
        cfg = config([0.5], unit_window)
        assert grad_sharp(lambda w: float(w.n), cfg, [0.25]) == 1.0

    def test_gibbs_density_single_atom(self, unit_window):
        # direct-evaluation oracle: F = exp(-c n^2) with c = 0.1; adding an
        # atom to a singleton gives exp(-0.4) - exp(-0.1)
        c = 0.1
        F = lambda w: math.exp(-c * w.n**2)
        cfg = config([0.5], unit_window)
        expected = math.exp(-0.4) - math.exp(-0.1)
        assert grad_sharp(F, cfg, [0.25]) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.2345173720003202, abs=1e-12)

    def test_additivity(self, unit_window, seed):
        # exactly representable functionals keep the identity bit-exact
        F = lambda w: float(w.n)
        G = lambda w: float(min(w.n, 3) * 0.5)
        FG = lambda w: F(w) + G(w)
        cfgs = poisson_batch_with_rng(IntensityMeasure.uniform(unit_window, 2.0), 20, seed.rng())
        rng = seed.rng(99)
        for cfg in cfgs:
            x = rng.uniform(0.0, 1.0, size=1)
            assert grad_sharp(FG, cfg, x) == grad_sharp(F, cfg, x) + grad_sharp(G, cfg, x)
        # generic smooth functionals agree to float association error
        F2 = lambda w: math.sin(w.n) + 0.25 * w.n
        G2 = lambda w: float(np.sum(w.atoms)) if w.n else 0.0
        FG2 = lambda w: F2(w) + G2(w)
        for cfg in cfgs[:5]:
            x = rng.uniform(0.0, 1.0, size=1)
            lhs = grad_sharp(FG2, cfg, x)
            rhs = grad_sharp(F2, cfg, x) + grad_sharp(G2, cfg, x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_point_outside_window(self, unit_window):
        cfg = config([0.5], unit_window)
        for bad in ([1.5], [math.nan], [0.5, 0.5], []):
            with pytest.raises(ValidationError):
                grad_sharp(lambda w: 0.0, cfg, bad)


class TestRademacherCheck:
    def test_truncated_count_is_lipschitz(self, lebesgue, seed):
        worst = rademacher_check(lambda w: min(w.n, 5), lebesgue, 200, seed)
        assert worst <= 1.0

    def test_distance_to_fixed_configuration(self, lebesgue, seed, unit_window):
        eta = config([[0.25], [0.5]], unit_window)
        F = lambda w: float(ppt.rho1(w, eta))
        worst = rademacher_check(F, lebesgue, 200, seed)
        assert worst <= 1.0

    def test_violation_detected(self, lebesgue, seed):
        worst = rademacher_check(lambda w: 2.0 * w.n, lebesgue, 200, seed)
        assert worst == 2.0

    def test_zero_mass_errors(self, unit_window, seed):
        zero = IntensityMeasure.uniform(unit_window, 0.0)
        with pytest.raises(ValidationError):
            rademacher_check(lambda w: 0.0, zero, 10, seed)


class TestSeedSpec:
    def test_identical_streams(self):
        a = SeedSpec(123, 4).rng().uniform(size=5)
        b = SeedSpec(123, 4).rng().uniform(size=5)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = SeedSpec(123, 0).rng().uniform(size=5)
        b = SeedSpec(123, 1).rng().uniform(size=5)
        assert not np.array_equal(a, b)

    def test_path_derivation(self):
        a = SeedSpec(9).rng(1).uniform(size=3)
        b = SeedSpec(9).rng(2).uniform(size=3)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SeedSpec(-1)
        with pytest.raises(ValidationError):
            SeedSpec(0, -2)

    def test_sampler_reproducibility(self, lebesgue):
        s = SeedSpec(77, 3)
        a = ppt.sample_poisson(lebesgue, s)
        b = ppt.sample_poisson(lebesgue, s)
        assert np.array_equal(a.atoms, b.atoms)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        first=st.one_of(st.integers(0, 2**40), st.integers(2**32 - 6, 2**32)),
        n=st.integers(1, 6),
    )
    @example(seed=0, first=0, n=3)
    @example(seed=2**64 - 1, first=2**32 - 3, n=6)  # three ids of one word, three of two
    def test_batch_streams_equal_numpy_seed_sequence(self, seed, first, n):
        """``_stream_rngs`` hashes on arrays what ``SeedSequence`` hashes per
        stream: the same PCG64 seed words, so the same draws as ``rng()``."""
        for i, rng in enumerate(_stream_rngs(seed, first, n)):
            want = np.random.SeedSequence(entropy=seed, spawn_key=(first + i,)).generate_state(4, np.uint64)
            assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64), want)
            assert rng.bit_generator.state == SeedSpec(seed, first + i).rng().bit_generator.state
            assert rng.integers(0, 2**63, 4).tolist() == SeedSpec(seed, first + i).rng().integers(0, 2**63, 4).tolist()


class TestEstimate:
    def test_std_error_definition(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        est = estimate_from_values(values, None)
        assert est.mean == pytest.approx(2.5)
        assert est.std_error == pytest.approx(values.std(ddof=1) / 2.0)
        assert est.n_samples == 4

    def test_requires_positive_samples(self):
        with pytest.raises(ValidationError):
            Estimate(mean=0.0, std_error=0.0, n_samples=0)


class TestSerialization:
    def test_decimal_round_trip_is_bit_exact(self, unit_window, seed):
        cfg = ppt.sample_poisson(IntensityMeasure.uniform(unit_window, 5.0), seed)
        back = config_from_coords(json.loads(json.dumps(config_to_coords(cfg))), unit_window)
        assert np.array_equal(cfg.atoms, back.atoms)

    def test_hex_round_trip(self, unit_window):
        cfg = config([[0.1], [1.0 / 3.0]], unit_window)
        text = json.dumps(config_to_coords(cfg, hex_floats=True))
        assert "0x" in text
        back = config_from_coords(json.loads(text), unit_window)
        assert np.array_equal(cfg.atoms, back.atoms)

    def test_empty_configuration(self, unit_window):
        cfg = Configuration([], unit_window)
        assert json.dumps(config_to_coords(cfg)) == "[]"
        assert config_from_coords(json.loads("[]"), unit_window).n == 0
